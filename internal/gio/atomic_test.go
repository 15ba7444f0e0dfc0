package gio

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
)

// dirHolds requires dir to hold exactly the named files, each with its
// bytes; a nil content means the name must be absent.
func dirHolds(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	present := map[string]bool{}
	for _, e := range entries {
		present[e.Name()] = true
		want := files[e.Name()]
		if want == nil {
			t.Errorf("%s is left in the directory", e.Name())
			continue
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s holds %d bytes that are not the %d expected", e.Name(), len(got), len(want))
		}
	}
	for name, want := range files {
		if want != nil && !present[name] {
			t.Errorf("%s is missing", name)
		}
	}
}

var errHalfway = errors.New("write failed halfway")

// halfWrite writes a prefix of the new contents, then fails.
func halfWrite(w io.Writer) error {
	if _, err := w.Write([]byte("new contents, the first ha")); err != nil {
		return err
	}
	return errHalfway
}

// TestWriteFileAtomicFailureKeepsOldFile: a write that fails after part of
// its output leaves the previous file byte-identical under its name, or
// no file where there was none, and no temporary file either way.
func TestWriteFileAtomicFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := WriteFileAtomic(path, halfWrite); !errors.Is(err, errHalfway) {
		t.Fatalf("err = %v, want the write's own error", err)
	}
	dirHolds(t, dir, map[string][]byte{"g.bin": nil})

	old := []byte("old contents, whole")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, halfWrite); !errors.Is(err, errHalfway) {
		t.Fatalf("err = %v, want the write's own error", err)
	}
	dirHolds(t, dir, map[string][]byte{"g.bin": old})
}

// TestWriteFileAtomicReplaces: a write that succeeds replaces the file
// whole and leaves only it, and a temporary name already taken — a
// crashed writer's leftover — is stepped over, not overwritten.
func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	stale := []byte("a crashed writer's partial output")
	if err := os.WriteFile(path+".tmp0", stale, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := []byte("new contents, all of them")
	if err := WriteFileAtomic(path, func(w io.Writer) error { _, err := w.Write(fresh); return err }); err != nil {
		t.Fatal(err)
	}
	dirHolds(t, dir, map[string][]byte{"g.bin": fresh, "g.bin.tmp0": stale})
}

// TestSaveBinaryFileLeavesOnlyTheFile: the binary container goes through
// the same path, and reads back.
func TestSaveBinaryFileLeavesOnlyTheFile(t *testing.T) {
	dir := t.TempDir()
	g, err := gen.Community(200, 4, 6, 0.9, gen.Config{Seed: 29, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.gcsr")
	if err := SaveBinaryFile(path, g); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteBinary(&want, g); err != nil {
		t.Fatal(err)
	}
	dirHolds(t, dir, map[string][]byte{"g.gcsr": want.Bytes()})
}
