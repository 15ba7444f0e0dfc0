package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

const errcheckFixture = "internal/lint/testdata/src/errcheck"

// goldenFindings reads the errcheck fixture's pinned findings, the ones
// internal/lint's TestGoldenJSON holds the rule to.
func goldenFindings(t *testing.T) ([]byte, []lint.Diagnostic) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "lint", "testdata", "golden", "errcheck.json"))
	if err != nil {
		t.Fatal(err)
	}
	var diags []lint.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != 4 {
		t.Fatalf("golden holds %d findings, want 4", len(diags))
	}
	return data, diags
}

// TestExitCodes is the contract the check gate leans on: findings exit 1,
// a clean package exits 0 and prints nothing, a flag the command does not
// take exits 2.
func TestExitCodes(t *testing.T) {
	golden, diags := goldenFindings(t)
	var human strings.Builder
	for _, d := range diags {
		human.WriteString(d.String() + "\n")
	}
	cases := []struct {
		name      string
		args      []string
		code      int
		stdout    string
		stderrHas string
	}{
		{"findings", []string{errcheckFixture}, 1, human.String(), "ndplint: 4 finding(s)"},
		{"findings-json", []string{"-json", errcheckFixture}, 1, string(golden), ""},
		{"clean", []string{"internal/gen"}, 0, "", ""},
		{"fix-gone", []string{"-fix", "./..."}, 2, "", "flag provided but not defined: -fix"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if stdout.String() != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), tc.stdout)
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderrHas)
			}
		})
	}
}
