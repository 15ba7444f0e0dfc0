package gio

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/testkit"
)

// TestFileOpenersCloseWhatTheyOpen holds every function here that opens a
// file to closing it, on the success path and on a failure path: three
// calls of each leave the process's descriptor count where it was.
func TestFileOpenersCloseWhatTheyOpen(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.gcsr")
	if err := SaveBinaryFile(bin, g); err != nil {
		t.Fatal(err)
	}
	edges := filepath.Join(dir, "g.txt")
	bad := filepath.Join(dir, "bad")
	for path, data := range map[string]string{edges: "0 1\n1 2\n", bad: "0 y\n"} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	errWrite := errors.New("write refused")
	cases := []struct {
		name    string
		op      func() error
		wantErr bool
	}{
		{"LoadBinaryFile", func() error { _, err := LoadBinaryFile(bin); return err }, false},
		{"LoadBinaryFile/not-a-container", func() error { _, err := LoadBinaryFile(bad); return err }, true},
		{"LoadEdgeListFile", func() error { _, err := LoadEdgeListFile(edges); return err }, false},
		{"LoadEdgeListFile/malformed", func() error { _, err := LoadEdgeListFile(bad); return err }, true},
		{"WriteFileAtomic", func() error {
			return WriteFileAtomic(filepath.Join(dir, "out"), func(w io.Writer) error {
				_, err := io.WriteString(w, "data")
				return err
			})
		}, false},
		{"WriteFileAtomic/write-fails", func() error {
			return WriteFileAtomic(filepath.Join(dir, "out"), func(io.Writer) error { return errWrite })
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testkit.LeaksNothing(t, "", func() {
				if err := tc.op(); (err != nil) != tc.wantErr {
					t.Errorf("err = %v, want an error: %v", err, tc.wantErr)
				}
			})
		})
	}
}
