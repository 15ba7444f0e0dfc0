package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/gio"
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

// killedWriterEnv names, in a child process of
// TestKilledWriterKeepsOldContainer, the container the child overwrites.
const killedWriterEnv = "STORE_KILLED_WRITER_PATH"

// killedWriterGraphs are the container the parent writes first and the one
// the child is killed halfway through writing over it.
func killedWriterGraphs(t *testing.T) (old, next *graph.Graph) {
	t.Helper()
	old, err := gen.Community(300, 4, 6, 0.9, gen.Config{Seed: 5, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	next, err = gen.Community(400, 4, 6, 0.9, gen.Config{Seed: 6, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	return old, next
}

// haltingWriter passes the first left bytes through to w, then tells the
// parent process so on stdout and blocks until its stdin closes: a writer
// stopped mid-container for the parent to kill.
type haltingWriter struct {
	w    io.Writer
	left int
}

func (h *haltingWriter) Write(p []byte) (int, error) {
	if len(p) < h.left {
		h.left -= len(p)
		return h.w.Write(p)
	}
	if _, err := h.w.Write(p[:h.left]); err != nil {
		return 0, err
	}
	fmt.Println("halfway")
	_, _ = io.Copy(io.Discard, os.Stdin)
	os.Exit(3) // the parent went away without killing us
	return 0, nil
}

// TestKilledWriterKeepsOldContainer kills a writer process with SIGKILL
// halfway through a container written over an existing one, so none of
// its deferred clean-up runs. The old container must survive byte for
// byte and open, the dead writer's half-written path.tmp0 is all it
// leaves behind, and the next save steps past that stale file.
//
// SaveGraphFile has no seam to stop it mid-write, so the child composes
// its two parts — gio.WriteFileAtomic around WriteGraph — with a
// haltingWriter between them.
func TestKilledWriterKeepsOldContainer(t *testing.T) {
	old, next := killedWriterGraphs(t)
	const segmentBytes = 256
	if path := os.Getenv(killedWriterEnv); path != "" {
		want, err := EncodeGraph(next, segmentBytes)
		if err != nil {
			t.Fatal(err)
		}
		err = gio.WriteFileAtomic(path, func(w io.Writer) error {
			return WriteGraph(&haltingWriter{w: w, left: len(want) / 2}, next, segmentBytes)
		})
		t.Fatalf("the halting write returned (%v)", err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "g.gcsr2")
	if err := SaveGraphFile(path, old, segmentBytes); err != nil {
		t.Fatal(err)
	}
	want, err := EncodeGraph(old, segmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantNext, err := EncodeGraph(next, segmentBytes)
	if err != nil {
		t.Fatal(err)
	}

	child := exec.Command(os.Args[0], "-test.run=^TestKilledWriterKeepsOldContainer$")
	child.Env = append(os.Environ(), killedWriterEnv+"="+path)
	stdin, err := child.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := child.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	halfway := false
	for sc := bufio.NewScanner(stdout); !halfway && sc.Scan(); {
		halfway = sc.Text() == "halfway"
	}
	if !halfway {
		t.Fatalf("the child ended before the middle of its write: %v", child.Wait())
	}
	if err := child.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := child.Wait(); err == nil || child.ProcessState.ExitCode() != -1 {
		t.Fatalf("child ended with %v, want killed by a signal", err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s holds %d bytes that are not the old container's %d", path, len(got), len(want))
	}
	st, err := OpenFile(path, Options{})
	if err != nil {
		t.Fatalf("the old container no longer opens: %v", err)
	}
	if g, err := st.Materialize(); err != nil || g.NumEdges() != old.NumEdges() {
		t.Fatalf("the old container reads back %v, err %v", g, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(path + ".tmp0")
	if err != nil || !bytes.Equal(stale, wantNext[:len(wantNext)/2]) {
		t.Fatalf("the dead writer's temporary file: %d bytes, err %v; want the first half of its container", len(stale), err)
	}

	// The next save writes path.tmp1 and renames it; the stale file stays.
	if err := SaveGraphFile(path, next, segmentBytes); err != nil {
		t.Fatalf("save past a stale temporary file: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantNext) {
		t.Fatalf("after the second save %s does not hold the new container (err %v)", path, err)
	}
	if err := os.Remove(path + ".tmp0"); err != nil {
		t.Fatal(err)
	}
	onlyFile(t, dir, "g.gcsr2", wantNext)
}
