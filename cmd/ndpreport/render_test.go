package main

import "testing"

// TestRenderNotesGolden pins the check-marker formatting and the
// pass/fail tally.
func TestRenderNotesGolden(t *testing.T) {
	notes := []string{
		"OK: aggregation reduced movement",
		"MISMATCH (figure 7): plateau missing",
		"plain observation",
		"OK: offload matched oracle",
	}
	body, ok, mismatch := renderNotes(notes)
	const golden = "- ✅ OK: aggregation reduced movement\n" +
		"- ❌ MISMATCH (figure 7): plateau missing\n" +
		"- plain observation\n" +
		"- ✅ OK: offload matched oracle\n"
	if body != golden {
		t.Fatalf("golden mismatch:\ngot:\n%s\nwant:\n%s", body, golden)
	}
	if ok != 2 || mismatch != 1 {
		t.Fatalf("tally ok=%d mismatch=%d, want 2 and 1", ok, mismatch)
	}
}

func TestRenderNotesEmpty(t *testing.T) {
	body, ok, mismatch := renderNotes(nil)
	if body != "" || ok != 0 || mismatch != 0 {
		t.Fatalf("empty notes rendered %q ok=%d mismatch=%d", body, ok, mismatch)
	}
}
