package gio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
)

// FuzzReadEdgeList ensures arbitrary text input never panics the parser
// and that anything it accepts is a structurally valid graph.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n0 1 0.5\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("0 1 2 3\n")
	f.Add("4294967295 0\n")
	f.Add("0 1\n\n\n% c\n2 3\n")
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input), 0)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph from %q: %v", input, err)
		}
	})
}

// FuzzReadBinary ensures arbitrary bytes never panic the binary reader,
// and that round-tripped containers with flipped bytes are either
// rejected or still valid CSR.
func FuzzReadBinary(f *testing.F) {
	// Seed with a real container.
	g, err := gen.ErdosRenyi(20, 60, gen.Config{Seed: 1, Weighted: true})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GCSR"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	var v2 bytes.Buffer
	if err := WriteBinaryCompressed(&v2, g); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(wrappedGapV2()) // a gap the codec once let wrap into range
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
	})
}
