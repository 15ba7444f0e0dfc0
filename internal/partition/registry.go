package partition

import (
	"fmt"
	"strings"
)

// entry ties a canonical strategy name to its default constructor, the
// same single-source pattern the kernels and ndp registries use.
type entry struct {
	name string
	make func(seed uint64) Partitioner
}

// registry is sorted by name and built once. Seed only matters to the
// seeded strategies; the rest ignore it.
var registry = []entry{
	{"chunk", func(uint64) Partitioner { return Chunk{} }},
	{"hash", func(uint64) Partitioner { return Hash{} }},
	{"ldg", func(uint64) Partitioner { return LDG{} }},
	{"multilevel", func(seed uint64) Partitioner { return Multilevel{Seed: seed} }},
	{"range", func(uint64) Partitioner { return Range{} }},
}

// Names lists the canonical partitioner names ByName accepts, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// ByName constructs a partitioner by canonical name. seed parameterizes
// the seeded strategies (multilevel); the others ignore it.
func ByName(name string, seed uint64) (Partitioner, error) {
	for _, e := range registry {
		if name == e.name {
			return e.make(seed), nil
		}
	}
	return nil, fmt.Errorf("partition: unknown partitioner %q (available: %s)", name, strings.Join(Names(), ", "))
}
