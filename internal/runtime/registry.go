package runtime

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// policies is every offload policy as its zero value, sorted by Name: the
// one source for Names, ByName, and the "available:" error text, as the
// kernels and partition registries are for theirs.
var policies = []sim.OffloadPolicy{sim.AlwaysOffload{}, ThresholdPolicy{}, Heuristic{},
	sim.MixedOracle{}, sim.NeverOffload{}, sim.Oracle{}, PartitionHeuristic{}}

// Names lists the policy names ByName accepts, sorted ("threshold", short
// for degree-threshold, is accepted too but not listed).
func Names() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = p.Name()
	}
	return names
}

// ByName returns the policy whose Name is name.
func ByName(name string) (sim.OffloadPolicy, error) {
	if name == "threshold" {
		name = ThresholdPolicy{}.Name()
	}
	for _, p := range policies {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("runtime: unknown policy %q (available: %s)", name, strings.Join(Names(), ", "))
}
