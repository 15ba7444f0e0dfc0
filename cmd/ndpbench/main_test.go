package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes: a flag combination the command cannot honour is a usage
// error (exit 2) naming the flag, before any artifact runs; -plot renders
// only in text and csv, so with markdown it is refused, not dropped.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		stderrHas string
	}{
		{"plot-markdown", []string{"-plot", "-format", "markdown", "table1"}, 2, "-plot"},
		{"plot-text", []string{"-plot", "table1"}, 0, ""},
		{"plot-csv", []string{"-plot", "-format", "csv", "table1"}, 0, ""},
		{"markdown", []string{"-format", "markdown", "table1"}, 0, ""},
		{"unknown-format", []string{"-format", "html", "table1"}, 2, "-format"},
		{"no-artifact", nil, 2, "usage"},
		{"unknown-flag", []string{"-csv", "table1"}, 2, "flag provided but not defined: -csv"},
		{"unknown-artifact", []string{"fig99"}, 1, "unknown artifact"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), tc.stderrHas)
			}
			if tc.code == 2 && stdout.Len() != 0 {
				t.Errorf("a usage error wrote %d bytes to stdout", stdout.Len())
			}
			if tc.code == 0 && stdout.Len() == 0 {
				t.Error("nothing written")
			}
		})
	}
}
