// Package experiments regenerates every table and figure in the paper's
// evaluation. Each artifact has an id (table1, table2, fig4, fig5, fig6,
// fig7a, fig7b, fig7c, dyn), a constructor that runs the corresponding
// workloads on the simulator, and a renderable result. DESIGN.md's
// per-experiment index maps each id to the paper artifact, workload, and
// modules involved.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sim"
)

// Config parameterises an experiment run. The zero value is usable: it
// selects the default dataset scale and seed.
type Config struct {
	// Scale multiplies the synthetic datasets' base sizes (default 0.5,
	// which keeps the full suite under a minute on a laptop).
	Scale float64
	// Seed drives dataset generation.
	Seed uint64
	// PageRankIterations bounds PR runs (default 10).
	PageRankIterations int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.PageRankIterations <= 0 {
		c.PageRankIterations = 10
	}
	return c
}

// Artifact is a regenerated table or figure.
type Artifact struct {
	ID    string
	Title string
	// Table holds the numbers (always present).
	Table *metrics.Table
	// Series holds per-iteration or per-sweep-point lines for figures.
	Series []metrics.Series
	// XLabel names the series' x axis.
	XLabel string
	// Notes records the qualitative paper-shape observations the run
	// exhibited (or violated).
	Notes []string
}

// runner builds one artifact.
type runner struct {
	id string
	fn func(Config) (*Artifact, error)
}

func registry() []runner {
	return []runner{
		{"table1", Table1},
		{"table2", Table2},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7a", Fig7a},
		{"fig7b", Fig7b},
		{"fig7c", Fig7c},
		{"dyn", Dynamic},
		{"mixed", Mixed},
		{"energy", Energy},
		{"cache", Cache},
		{"hetero", Hetero},
		{"straggler", Straggler},
		{"tree", Tree},
	}
}

// IDs lists the artifact ids in evaluation order.
func IDs() []string {
	rs := registry()
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.id
	}
	return ids
}

// Run regenerates one artifact by id.
func Run(id string, cfg Config) (*Artifact, error) {
	for _, r := range registry() {
		if r.id == id {
			return r.fn(cfg)
		}
	}
	ids := IDs()
	sort.Strings(ids)
	return nil, fmt.Errorf("experiments: unknown artifact %q (have %v)", id, ids)
}

// --- shared plumbing -----------------------------------------------------

// dataset generates a named stand-in at the config's scale.
func dataset(cfg Config, ds gen.Dataset) (*graph.Graph, error) {
	g, err := ds.Generate(cfg.Scale, gen.Config{Seed: cfg.Seed, Weighted: true, DropSelfLoops: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", ds.Name, err)
	}
	return g, nil
}

// partitioned returns a hash assignment and matching topology.
func partitioned(cfg Config, g *graph.Graph, parts int, p partition.Partitioner) (*partition.Assignment, sim.Topology, error) {
	a, err := p.Partition(g, parts)
	if err != nil {
		return nil, sim.Topology{}, err
	}
	return a, sim.DefaultTopology(core.DefaultSpec().Computes, parts), nil
}

// priced executes k once on g over the assignment and prices that one
// execution under each engine, in order: the architectures or policies
// an artifact compares differ only in how they price a run.
func priced(g *graph.Graph, k kernels.Kernel, assign *partition.Assignment, engines ...sim.Engine) ([]*sim.Run, error) {
	t, err := sim.Execute(context.Background(), g, k, sim.ExecConfig{Assign: assign})
	if err != nil {
		return nil, err
	}
	runs := make([]*sim.Run, len(engines))
	for i, e := range engines {
		if runs[i], err = e.Price(t); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func note(a *Artifact, format string, args ...interface{}) {
	a.Notes = append(a.Notes, fmt.Sprintf(format, args...))
}

// ratio guards division by zero.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// forEach runs fn(0..n-1) concurrently and returns the lowest-index
// error. Each fn writes only its own slice slots, so callers fold the
// results in index order afterwards — artifact rows and series stay in
// their fixed (Table II / sweep) order no matter which goroutine
// finishes first.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
