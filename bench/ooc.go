package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/store"
)

// oocSegmentBytes is the container's segment size: small enough that
// the stand-in spans dozens of segments and a fractional budget evicts.
const oocSegmentBytes = 256 << 10

// pressureShare is ooc-pressure's local tier as a share of the
// container's decompressed size.
const pressureShare = 0.25

// sweep pins and releases every segment once, in vertex order, and
// returns the first vertex of each.
func sweep(st *store.Store) (firsts []graph.VertexID, err error) {
	n := st.NumVertices()
	for v := 0; v < n; {
		sg, err := st.Pin(graph.VertexID(v))
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, graph.VertexID(v))
		for v < n && sg.Contains(graph.VertexID(v)) {
			v++
		}
		sg.Release()
	}
	return firsts, nil
}

func buildOOCResident(cfg config, rec *recorder, refs *refCache) (*env, error) {
	return buildOOC(cfg, rec, refs, false)
}

func buildOOCPressure(cfg config, rec *recorder, refs *refCache) (*env, error) {
	return buildOOC(cfg, rec, refs, true)
}

// buildOOC saves the mem-kernels graph as a container and opens it with
// an unlimited local tier, or under pressure with a quarter of what the
// tier holds after one full pass.
func buildOOC(cfg config, rec *recorder, refs *refCache, pressure bool) (_ *env, err error) {
	segBytes := int64(oocSegmentBytes)
	if cfg.tiny {
		segBytes = 4 << 10
	}
	g, list, e, err := kernelInputs(cfg, rec, refs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "ooc-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, os.RemoveAll(dir))
		}
	}()
	path := filepath.Join(dir, "graph.gcsr2")
	sp := rec.begin("store.SaveGraphFile", 0, 0)
	err = store.SaveGraphFile(path, g, segBytes)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	edges := g.NumEdges()
	g = nil // from here on the container is the graph

	var budget int64
	if pressure {
		if budget, err = pressureBudget(path); err != nil {
			return nil, err
		}
	}
	sp = rec.begin("store.OpenFile", 0, 0)
	st, err := store.OpenFile(path, store.Options{LocalBytes: budget})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	e.close = func() error {
		return errors.Join(st.Close(), os.RemoveAll(dir))
	}
	e.info = append(e.info, fmt.Sprintf("container %d vertices %d edges %d segments, local tier %s",
		st.NumVertices(), edges, st.NumSegments(), tierName(budget)))

	eng := core.StoreEngine(st)
	for i, s := range list {
		s, ref := s, refs.kernel[i]
		e.jobs = append(e.jobs, &job{
			class: "store." + s.kind, label: s.String() + " core.StoreEngine", ref: ref,
			run: func(ctx context.Context) (outcome, error) {
				before := st.Stats()
				res, err := eng.Run(ctx, nil, s.kernel(), core.RunConfig{})
				if err != nil {
					return outcome{}, err
				}
				after := st.Stats()
				return outcome{
					values: res.Values, moved: after.FarBytes - before.FarBytes, counted: true,
					counts: map[string]int64{
						"hits":      after.Hits - before.Hits,
						"misses":    after.Misses - before.Misses,
						"evictions": after.Evictions - before.Evictions,
					},
				}, nil
			},
		})
	}
	e.layers = func(rec *recorder, m readings, _ measured) error {
		m.set("store.peak_resident_mb", float64(st.Stats().PeakResidentBytes)/(1<<20), "MiB")
		if budget > 0 {
			m.set("store.budget_mb", float64(budget)/(1<<20), "MiB")
		}
		return storeLayers(path, edges, rec, m)
	}
	return e, nil
}

func tierName(budget int64) string {
	if budget <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.2f MiB", float64(budget)/(1<<20))
}

// pressureBudget opens the container with no limit, passes over every
// segment once and returns pressureShare of what the tier then holds.
func pressureBudget(path string) (int64, error) {
	st, err := store.OpenFile(path, store.Options{})
	if err != nil {
		return 0, err
	}
	if _, err := sweep(st); err != nil {
		return 0, errors.Join(err, st.Close())
	}
	resident := st.Stats().ResidentBytes
	if err := st.Close(); err != nil {
		return 0, err
	}
	return int64(pressureShare * float64(resident)), nil
}

// storeLayers turns the traced rounds' spans into the store rows and
// probes the tier's two paths on a handle of its own: a cold sweep
// (decode) and warm sweeps (pin hits).
func storeLayers(path string, edges int64, rec *recorder, m readings) (err error) {
	var hits, misses, evictions, jobs int64
	var jobMS float64
	for _, kind := range kernelKinds {
		name := "store." + kind
		ms := rec.ms(name)
		m.set(name+".job_ms", median(ms), "ms")
		for _, d := range ms {
			jobMS += d
		}
		jobs += int64(len(ms))
		hits += rec.sum(name, "hits")
		misses += rec.sum(name, "misses")
		evictions += rec.sum(name, "evictions")
	}
	m.set("store.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	m.set("store.misses_per_job", float64(misses)/float64(jobs), "count")
	m.set("store.evictions_per_job", float64(evictions)/float64(jobs), "count")
	m.set("store.encode_s", median(rec.ms("store.SaveGraphFile"))/1e3, "s")
	m.set("store.open_ms", median(rec.ms("store.OpenFile")), "ms")
	m.set("gen.generate_s", median(rec.ms("gen.Generate"))/1e3, "s")
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("store.container_bytes_per_edge", float64(fi.Size())/float64(edges), "B")

	st, err := store.OpenFile(path, store.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	sp := rec.begin("store.Pin.cold", 0, 0)
	t0 := time.Now()
	firsts, err := sweep(st)
	cold := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return err
	}
	m.set("store.decode_mb_per_s", float64(st.Stats().ResidentBytes)/(1<<20)/cold.Seconds(), "MiB/s")
	// misses × mean decode time ÷ job wall: the share of the traced
	// rounds the miss path accounts for.
	m.set("store.decode_share", float64(misses)*(cold.Seconds()*1e3/float64(len(firsts)))/jobMS, "ratio")

	// Every segment is resident now: the same pins again are all hits.
	const warmSweeps = 2000
	sp = rec.begin("store.Pin.warm", 0, 0)
	t0 = time.Now()
	for i := 0; i < warmSweeps; i++ {
		for _, v := range firsts {
			sg, err := st.Pin(v)
			if err != nil {
				rec.end(sp)
				return err
			}
			sg.Release()
		}
	}
	warm := time.Since(t0)
	rec.end(sp)
	m.set("store.pin_hit_ns", float64(warm.Nanoseconds())/float64(warmSweeps*len(firsts)), "ns")

	sp = rec.begin("store.Materialize", 0, 0)
	_, err = st.Materialize()
	rec.end(sp)
	if err != nil {
		return err
	}
	m.set("store.materialize_s", median(rec.ms("store.Materialize"))/1e3, "s")
	sp = rec.begin("store.Digest", 0, 0)
	_, err = st.Digest()
	rec.end(sp)
	if err != nil {
		return err
	}
	m.set("store.digest_s", median(rec.ms("store.Digest"))/1e3, "s")
	return nil
}
