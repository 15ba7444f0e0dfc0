package core_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/serve"
)

// perturbation moves one Spec field to another value.
type perturbation struct {
	field string // the field's JSON name, as Unread names it
	apply func(core.Spec) core.Spec
}

// perturbations is a fixed list of moves for every Spec field, kept apart
// from core's table so the test can check the table rather than restate
// it: other engines and architectures, an alias of the kernel and another
// kernel, budgets, machine shapes, policies (one an alias of another),
// devices, switch buffers and the cluster's links and faults.
func perturbations(kernel string) []perturbation {
	aliases := map[string]string{"pagerank": "pr", "cc": "connectedcomponents", "indegree": "degree",
		"pagerank-delta": "prdelta", "reach": "reachability"}
	other := "bfs"
	if kernel == other {
		other = "cc"
	}
	var ps []perturbation
	add := func(field string, apply func(core.Spec) core.Spec) { ps = append(ps, perturbation{field, apply}) }
	for _, e := range []string{core.EngineSerial, core.EngineSim, core.EngineCluster} {
		add("engine", func(s core.Spec) core.Spec { s.Engine = e; return s })
	}
	for _, a := range core.Architectures() {
		add("arch", func(s core.Spec) core.Spec { s.Arch = a.String(); return s })
	}
	for _, k := range []string{aliases[kernel], other} {
		if k != "" {
			add("kernel", func(s core.Spec) core.Spec { s.Kernel = k; return s })
		}
	}
	for _, n := range []int{2, 7} {
		add("priters", func(s core.Spec) core.Spec { s.PRIters = n; return s })
	}
	for _, n := range []int{3, 5} {
		add("partitions", func(s core.Spec) core.Spec { s.Partitions = n; return s })
	}
	for _, n := range []int{1, 3} {
		add("computes", func(s core.Spec) core.Spec { s.Computes = n; return s })
	}
	for _, p := range []string{"chunk", "multilevel"} {
		add("partitioner", func(s core.Spec) core.Spec { s.Partitioner = p; return s })
	}
	add("seed", func(s core.Spec) core.Spec { s.Seed = 7; return s })
	for _, p := range []string{"always", "never", "threshold", "degree-threshold"} {
		add("policy", func(s core.Spec) core.Spec { s.Policy = p; return s })
	}
	add("aggregation", func(s core.Spec) core.Spec { s.Aggregation = !s.Aggregation; return s })
	for _, d := range []string{"UPMEM", "CXL-PNM"} {
		add("device", func(s core.Spec) core.Spec { s.Device = d; return s })
	}
	for _, n := range []int64{1, 8} {
		add("switchbuffer", func(s core.Spec) core.Spec { s.SwitchBuffer = n; return s })
	}
	for _, n := range []int{2, 3} {
		add("treefanin", func(s core.Spec) core.Spec { s.TreeFanIn = n; return s })
	}
	for _, n := range []int{1, 16} {
		add("chandepth", func(s core.Spec) core.Spec { s.ChannelDepth = n; return s })
	}
	for _, f := range []cluster.FaultPlan{{Seed: 7, Update: cluster.LinkFaults{Drop: 0.3}}, {Crash: map[int]int{1: 1}}} {
		add("fault", func(s core.Spec) core.Spec { s.Fault = f; return s })
	}
	for _, d := range []string{"push", "pull"} {
		add("direction", func(s core.Spec) core.Spec { s.Direction = d; return s })
	}
	for _, n := range []int{1, 3} {
		add("workers", func(s core.Spec) core.Spec { s.Workers = n; return s })
	}
	return ps
}

// TestReadsTableMatchesExecution checks core's table of what each run
// reads against what the engines do, on a small graph, for the kernel
// engine, the simulator's four architectures and the cluster, every
// kernel, and every field's perturbations:
//   - where Canonical maps a perturbed spec to its base's form — the field
//     is zeroed, or a spelling is — the result's bytes are equal, and so
//     are two spellings of one policy;
//   - where it keeps the field, some perturbation under some kernel
//     changes the bytes (or makes a spec the engine refuses);
//   - Unread names only fields Canonical zeroes.
//
// The one exception is Seed, which the base's hash partitioner ignores:
// Canonical keeps it on purpose. serve-mix's misses are LDG simulator jobs
// at fresh seeds, and zeroing Seed for seedless partitioners would make
// each of them a result hit, so the benchmark would stop measuring the
// miss path.
func TestReadsTableMatchesExecution(t *testing.T) {
	g, err := gen.ErdosRenyi(64, 256, gen.Config{Seed: 3, Weighted: true, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(s core.Spec) ([]byte, error) {
		res, err := s.Run(context.Background(), g, nil)
		if err != nil {
			return nil, err
		}
		return serve.MarshalResult(res)
	}
	base := core.DefaultSpec()
	base.Partitioner, base.Partitions, base.PRIters = "hash", 4, 4
	var bases []core.Spec
	for _, engine := range []string{core.EngineSerial, core.EngineSim, core.EngineCluster} {
		for _, arch := range core.Architectures() {
			if engine != core.EngineSim && arch != core.DisaggregatedNDP {
				continue
			}
			b := base
			b.Engine, b.Arch = engine, arch.String()
			bases = append(bases, b)
		}
	}
	for _, b := range bases {
		name := b.Engine + " " + b.Arch
		if b.Engine == core.EngineSerial {
			name = b.Engine
		}
		t.Run(name, func(t *testing.T) {
			kept, moved := map[string]bool{}, map[string]bool{}
			for _, kernel := range kernels.Names() {
				b := b
				b.Kernel = kernel
				want, err := run(b)
				if err != nil {
					continue // the engine refuses the kernel: the cluster a stateful one
				}
				for _, p := range perturbations(kernel) {
					s := p.apply(b)
					got, err := run(s)
					if !reflect.DeepEqual(s.Canonical(), b.Canonical()) {
						kept[p.field] = true
						moved[p.field] = moved[p.field] || err != nil || !bytes.Equal(got, want)
						if slices.Contains(b.Unread(), p.field) {
							t.Errorf("%s: Unread names %s, which Canonical keeps", kernel, p.field)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %s perturbed, same canonical form: %v", kernel, p.field, err)
					} else if !bytes.Equal(got, want) {
						t.Errorf("%s: %s perturbed moves the bytes, but Canonical zeroes it", kernel, p.field)
					}
				}
			}
			for field := range kept {
				if !moved[field] && field != "seed" {
					t.Errorf("Canonical keeps %s, which no perturbation under any kernel moves", field)
				}
			}
		})
	}
}
