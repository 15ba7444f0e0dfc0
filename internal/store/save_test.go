package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// onlyFile requires dir to hold one file, name, with the bytes want.
func onlyFile(t *testing.T, dir, name string, want []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %d bytes that are not the %d expected", name, len(got), len(want))
	}
}

// TestSaveFailureKeepsOldContainer: both container writers fail part-way
// through their output — after the header and several segments — and
// leave the previous container byte-identical and no temporary file.
func TestSaveFailureKeepsOldContainer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.gcsr2")
	old, err := gen.Community(300, 4, 6, 0.9, gen.Config{Seed: 5, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveGraphFile(path, old, 256); err != nil {
		t.Fatal(err)
	}
	want, err := EncodeGraph(old, 256)
	if err != nil {
		t.Fatal(err)
	}
	onlyFile(t, dir, "g.gcsr2", want)

	// The last vertex's neighbours are out of order, which the Writer
	// refuses only once every earlier segment has gone out.
	offsets := make([]int64, 101)
	var edges []graph.VertexID
	for v := 0; v < 100; v++ {
		nbrs := []graph.VertexID{graph.VertexID((v + 1) % 100), graph.VertexID((v + 2) % 100)}
		if v == 99 {
			nbrs[0], nbrs[1] = 1, 0
		}
		edges = append(edges, nbrs...)
		offsets[v+1] = int64(len(edges))
	}
	bad, err := graph.NewCSR(offsets, edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveGraphFile(path, bad, 16); err == nil {
		t.Fatal("SaveGraphFile accepted unsorted neighbours")
	}
	onlyFile(t, dir, "g.gcsr2", want)

	// A spill run cut inside a record fails the merge after the container
	// has begun.
	sb := NewSpillBuilder(300, SpillOptions{SpillEdges: 256, TempDir: t.TempDir(), SegmentBytes: 64})
	old.ForEachEdge(func(s, d graph.VertexID, w float32) bool {
		sb.AddEdge(s, d, w)
		return true
	})
	if sb.NumRuns() < 2 {
		t.Fatalf("%d spill runs, the test needs two", sb.NumRuns())
	}
	last := sb.runs[len(sb.runs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-edgeRecSize/2); err != nil {
		t.Fatal(err)
	}
	if err := sb.SaveContainer(path); err == nil {
		t.Fatal("SaveContainer merged a truncated run")
	}
	onlyFile(t, dir, "g.gcsr2", want)
}
