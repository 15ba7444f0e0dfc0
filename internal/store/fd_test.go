package store

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testkit"
)

// TestFileOpenersCloseWhatTheyOpen holds the store's three file openers to
// handing back what they take, on success and on failure: OpenFile's
// descriptor and mapping (the mapped path, and the positioned-read path an
// empty file takes), and the spill builder's run files, written and then
// read back. Three calls of each leave the process's descriptors, and its
// mappings of the container, where they were.
func TestFileOpenersCloseWhatTheyOpen(t *testing.T) {
	dir := t.TempDir()
	container := filepath.Join(dir, "g.gcsr2")
	if err := SaveGraphFile(container, goldenGraph(t), 16); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.gcsr2")
	empty := filepath.Join(dir, "empty.gcsr2")
	for path, data := range map[string]string{garbage: "not a container", empty: ""} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	open := func(path string, wantErr bool) func() {
		return func() {
			st, err := OpenFile(path, Options{})
			if (err != nil) != wantErr {
				t.Fatalf("OpenFile(%s): err = %v, want an error: %v", filepath.Base(path), err, wantErr)
			}
			if err != nil {
				return
			}
			sg, err := st.Pin(0)
			if err != nil {
				t.Fatal(err)
			}
			sg.Release()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	spill := func(loseRun bool) func() {
		return func() {
			sb := NewSpillBuilder(50, SpillOptions{SpillEdges: 16, TempDir: dir})
			for _, e := range randomEdges(50, 200, 9) {
				sb.AddEdge(e.Src, e.Dst, e.Weight)
			}
			if sb.NumRuns() < 2 {
				t.Fatalf("%d runs spilled, want at least 2", sb.NumRuns())
			}
			if loseRun {
				// The merge opens the first run, then fails on the second.
				if err := os.Remove(sb.runs[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := sb.WriteContainer(io.Discard); (err != nil) != loseRun {
				t.Fatalf("WriteContainer: err = %v, want an error: %v", err, loseRun)
			}
		}
	}
	cases := []struct {
		name, path string
		op         func()
	}{
		{"OpenFile", container, open(container, false)},
		{"OpenFile/not-a-container", garbage, open(garbage, true)},
		{"OpenFile/empty", empty, open(empty, true)},
		{"SpillBuilder", "", spill(false)},
		{"SpillBuilder/run-missing", "", spill(true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testkit.LeaksNothing(t, tc.path, tc.op)
		})
	}
}
