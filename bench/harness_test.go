package main

import (
	"context"
	"errors"
	"math"
	"testing"
)

// A job that errs, one that answers wrongly and one whose exact count
// drifts after the warm-up are all failures; the good job still counts.
func TestRunJobsCountsEveryKindOfFailure(t *testing.T) {
	good := []float64{0, 1, 2}
	ref := &reference{nominal: 100, digest: digestValues(good)}
	drift := int64(5)
	e := &env{jobs: []*job{
		{class: "ok", label: "ok", ref: ref, run: func(context.Context) (outcome, error) {
			return outcome{values: good, exact: []int64{5}}, nil
		}},
		{class: "err", label: "err", ref: ref, run: func(context.Context) (outcome, error) {
			return outcome{}, errors.New("refused")
		}},
		{class: "wrong", label: "wrong", ref: ref, run: func(context.Context) (outcome, error) {
			return outcome{values: []float64{0, 1, 3}}, nil
		}},
		{class: "drift", label: "drift", ref: ref, run: func(context.Context) (outcome, error) {
			drift++
			return outcome{values: good, exact: []int64{drift}}, nil
		}},
	}}
	warm := runJobs(e, 0, nil)
	if warm.jobs != 4 || warm.failed != 2 {
		t.Errorf("warm-up: %d jobs %d failed, want 4 and 2", warm.jobs, warm.failed)
	}
	rs := runJobs(e, 1, nil)
	if rs.jobs != 4 || rs.failed != 3 || rs.nominal != 100 {
		t.Errorf("round 1: %d jobs %d failed %d nominal edges, want 4, 3 and 100", rs.jobs, rs.failed, rs.nominal)
	}
	inf := 0
	for _, l := range rs.lat {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 3 {
		t.Errorf("%d failed jobs count as +Inf latency, want 3", inf)
	}
}

func TestPageRankHeldToToleranceAndWarmUp(t *testing.T) {
	rank := []float64{0.25, 0.25, 0.5}
	j := &job{ref: &reference{rank: rank, digest: digestValues(rank)}}
	near := []float64{0.25 + 1e-12, 0.25, 0.5}
	if err := j.verify(outcome{values: near}, true); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if err := j.verify(outcome{values: near}, false); err != nil {
		t.Errorf("repeats the warm-up: %v", err)
	}
	if err := j.verify(outcome{values: rank}, false); err == nil {
		t.Error("within tolerance but not the warm-up's bits: want an error")
	}
	if err := j.verify(outcome{values: []float64{0.25 + 1e-6, 0.25, 0.5}}, true); err == nil {
		t.Error("1e-6 from the reference: want an error")
	}
	if err := j.verify(outcome{values: []float64{math.NaN(), 0.25, 0.5}}, true); err == nil {
		t.Error("NaN: want an error")
	}
}
