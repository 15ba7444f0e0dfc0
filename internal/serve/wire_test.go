package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// marshalReference is MarshalResult as it was written before it encoded
// the values in place: the bits in one buffer, their base64 as a string,
// and encoding/json over the whole wire struct.
func marshalReference(r *core.Result) ([]byte, error) {
	raw := make([]byte, 8*len(r.Values))
	for i, v := range r.Values {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return json.Marshal(toWire(r, base64.StdEncoding.EncodeToString(raw)))
}

// encoded is vals' base64 as encodeValues writes it, into a kept trace's
// buffer.
func encoded(vals []float64) []byte {
	dst := make([]byte, valuesLen(len(vals)))
	encodeValues(dst, vals)
	return dst
}

// FuzzMarshalResult holds MarshalResult, and marshalResult given the
// values' encoding, to the reference byte for byte on arbitrary results:
// value vectors of every length (NaN payloads, signed zeros, infinities),
// strings that encoding/json escapes or repairs, every omitempty field at
// zero and nonzero, and totals that encoding/json formats with an
// exponent or refuses. Where one fails, all fail, with the same error.
func FuzzMarshalResult(f *testing.F) {
	specials := make([]byte, 0, 8*8)
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000123), math.Float64frombits(0xFFF8000000000001), 0.15} {
		specials = binary.LittleEndian.AppendUint64(specials, math.Float64bits(v))
	}
	for n := 0; n <= 8; n++ { // every length mod 3, the empty vector included
		f.Add(specials[:8*n], "disaggregated-ndp+inc", "pagerank", "", 10, true, "", []byte{}, uint16(0), int64(0), 0.0, 0.0)
	}
	f.Add(specials, `en"gine`, "<bfs>&", "note \"<&>\" \u2028\u2029 \xff\xfe", -1, false, "a,b\"c,\u2028", []byte{0, 1, 255}, uint16(0xFFFF), int64(-7), 1e-7, 1e21)
	f.Add(specials[:24], "serial", "cc", "x", 3, true, "", []byte{9}, uint16(0x55), int64(1<<62), math.NaN(), 1.0)
	f.Add(specials[:16], "sim", "sssp", "", 0, false, "c", []byte{}, uint16(0xAA), int64(1), math.Inf(1), 2.0)
	f.Add(specials[:8], "sim", "sssp", "", 0, false, "", []byte{}, uint16(1), int64(1), math.Inf(-1), 0.0)
	f.Add(specials[:8], "sim", "sssp", "", 0, false, "", []byte{}, uint16(2), int64(1), 1.5, math.NaN())
	f.Add(specials[:8], "sim", "sssp", "", 0, false, "", []byte{}, uint16(4), int64(1), 1e20, 1e-6)
	f.Fuzz(func(t *testing.T, raw []byte, engine, kernel, note string, iters int, converged bool,
		counterNames string, series []byte, nonzero uint16, n int64, secs, joules float64) {
		r := &core.Result{
			Engine:            engine,
			Kernel:            kernel,
			Values:            make([]float64, len(raw)/8),
			Iterations:        iters,
			Converged:         converged,
			OffloadSupported:  nonzero&(1<<9) != 0,
			OffloadNote:       note,
			TotalSeconds:      secs,
			TotalEnergyJoules: joules,
		}
		for i := range r.Values {
			r.Values[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		// Each bit of nonzero sets one int64 field, so every omitempty
		// field is exercised at zero and at a value.
		for i, p := range []*int64{&r.TotalDataMovementBytes, &r.TotalSyncEvents,
			&r.Traffic.MemToSwitch, &r.Traffic.SwitchToCompute, &r.Traffic.Writeback,
			&r.Faults.Drops, &r.Faults.Crashes, &r.Faults.Retries} {
			if nonzero&(1<<i) != 0 {
				*p = n + int64(i)
			}
		}
		// The series comes from the simulator's records or, without them,
		// the cluster's per-iteration traffic; an empty one is omitted.
		for i, b := range series {
			if nonzero&(1<<8) != 0 {
				r.Records = append(r.Records, sim.Record{Iteration: i, DataMovementBytes: n * int64(b)})
			} else {
				r.PerIteration = append(r.PerIteration, cluster.Traffic{Writeback: n - int64(b)})
			}
		}
		if counterNames != "" {
			for i, name := range strings.Split(counterNames, ",") {
				r.Counters = append(r.Counters, metrics.CounterValue{Name: name, Value: n - int64(i)})
			}
		}
		got, err := MarshalResult(r)
		want, werr := marshalReference(r)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("MarshalResult error %v, reference error %v", err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalResult differs from the reference:\n got %q\nwant %q", got, want)
		}
		if err == nil && cap(got) != len(got) {
			t.Fatalf("%d bytes in a buffer of %d: the output is not sized exactly", len(got), cap(got))
		}
		// A kept trace's encoding, spliced in, writes the same bytes.
		spliced, serr := marshalResult(r, encoded(r.Values))
		if (serr == nil) != (err == nil) || serr != nil && serr.Error() != err.Error() || !bytes.Equal(spliced, got) {
			t.Fatalf("marshalResult with the values encoded differs from MarshalResult:\n got %q (%v)\nwant %q (%v)", spliced, serr, got, err)
		}
		if serr == nil && cap(spliced) != len(spliced) {
			t.Fatalf("%d bytes in a buffer of %d: the spliced output is not sized exactly", len(spliced), cap(spliced))
		}
	})
}

// marshalAllocsValues is the length of serve-mix's results: the vertex
// count of its graphs, whose results are ≈ 171 KiB on the wire.
const marshalAllocsValues = 16384

// simResult runs PageRank on the simulator over a random graph of n
// vertices: a result with the shape a served miss encodes.
func simResult(t testing.TB, n int) *core.Result {
	t.Helper()
	g, err := gen.ErdosRenyi(n, 4*n, gen.Config{Seed: 5, DropSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Snapshot: "g", Kernel: "pagerank", Partitioner: "hash"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteSpec(context.Background(), g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != n || len(res.Records) == 0 {
		t.Fatalf("%d values and %d records", len(res.Values), len(res.Records))
	}
	return res
}

// TestMarshalResultAllocs holds MarshalResult of a 16,384-value simulator
// result to a reviewed allocation count and its bytes to the output's
// plus 4 KiB. The 4 allocations:
//   - the wire struct and its movement series (2);
//   - encoding/json's copy of everything but the values, a few hundred
//     bytes (1);
//   - the output, at its exact length (1).
//
// The values are encoded in place, so a bits buffer, a base64 string or a
// growing encoder buffer would each add about a length of the output. The
// runtime rounds an allocation over 32 KiB up to whole 8 KiB pages, so the
// output's share is its length rounded up to a page. Under -race the
// count reads 6, so the gate runs without it.
func TestMarshalResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the count is pinned without -race")
	}
	res := simResult(t, marshalAllocsValues)
	out, err := MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func() {
		if _, err := MarshalResult(res); err != nil {
			t.Fatal(err)
		}
	}
	const want = 4
	if got := testing.AllocsPerRun(100, marshal); got != want {
		t.Errorf("MarshalResult makes %.0f allocations, want %d: the count is a reviewed number — a change that moves it updates it here, with why", got, want)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		marshal()
	}
	runtime.ReadMemStats(&after)
	const page = 8 << 10
	if perRun, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64((len(out)+page-1)/page*page+4096); perRun > limit {
		t.Errorf("MarshalResult allocates %d bytes for a %d-byte result, want at most %d: its pages and 4 KiB", perRun, len(out), limit)
	}
}

// BenchmarkMarshalResult encodes the 16,384-value simulator result a
// served miss encodes. B/op is the output's 175,126 bytes rounded up to
// 8 KiB pages (180,224) plus ≈ 720 bytes of the wire struct and
// encoding/json's.
func BenchmarkMarshalResult(b *testing.B) {
	res := simResult(b, marshalAllocsValues)
	out, err := MarshalResult(res)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if marshalSink, err = MarshalResult(res); err != nil {
			b.Fatal(err)
		}
	}
}

// marshalSink keeps BenchmarkMarshalResult's calls from being optimized
// away.
var marshalSink []byte

// TestJobSpecForInvertsSpec holds the one conversion to the wire to the
// one conversion from it: after JobSpecFor(n, s).Spec(), every field the
// wire carries is s's and every other field is DefaultSpec's.
func TestJobSpecForInvertsSpec(t *testing.T) {
	every := core.Spec{Engine: core.EngineCluster, Arch: "distributed", Kernel: "bfs", PRIters: 3, Partitions: 16,
		Computes: 5, Partitioner: "ldg", Seed: 7, Policy: "never", Aggregation: false, Device: "UPMEM", SwitchBuffer: 64,
		TreeFanIn: 4, ChannelDepth: 8, Fault: cluster.FaultPlan{Seed: 3, Crash: map[int]int{1: 2}}, Direction: "push", Workers: 3}
	for _, s := range []core.Spec{core.DefaultSpec(), every, {}} {
		job := JobSpecFor("g", s)
		if job.Snapshot != "g" {
			t.Errorf("snapshot %q, want g", job.Snapshot)
		}
		want, d := s, core.DefaultSpec()
		want.Device, want.SwitchBuffer, want.Fault, want.Direction = d.Device, d.SwitchBuffer, d.Fault, d.Direction
		if got := job.Spec(); !reflect.DeepEqual(got, want) {
			t.Errorf("JobSpecFor(%+v).Spec()\n got %+v\nwant %+v", s, got, want)
		}
	}
}
