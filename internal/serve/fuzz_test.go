package serve

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzJobSpecNormalize feeds arbitrary bytes through the path a
// submission's body takes — json.Unmarshal into a JobSpec, then Normalize
// — and requires an error or a canonical spec: normalizing it again
// changes nothing, and its cache key is the same before and after that
// second pass and does not move with the snapshot's name, Workers,
// ChannelDepth, a field the spec's engine does not read, the budget of a
// kernel that has none, or a kernel's alias. The perturbations are this
// test's own list, not core's table, so the two check each other.
func FuzzJobSpecNormalize(f *testing.F) {
	f.Add([]byte(`{"snapshot":"g"}`))
	f.Add([]byte(`{"snapshot":"g","engine":"cluster","kernel":"bfs","partitions":16,"computes":2,"partitioner":"ldg","aggregation":false,"treefanin":4}`))
	f.Add([]byte(`{"snapshot":"g","engine":"serial","kernel":"pr","priters":-1}`))
	f.Add([]byte(`{"snapshot":"g","engine":"cluster","arch":"distributed"}`))
	f.Add([]byte(`{"snapshot":"","seed":18446744073709551615,"workers":-3}`))
	f.Add([]byte(`{"snapshot":"g","partitions":1e3,"policy":"never","aggregation":null}`))
	f.Add([]byte(`[{"snapshot":"g"}]`))
	f.Add([]byte(`{"snapshot":"g","kernel":"connectedcomponents","priters":20,"arch":"distributed-ndp","computes":5}`))
	aliases := map[string]string{"pagerank": "pr", "pr": "pagerank", "cc": "connectedcomponents", "connectedcomponents": "cc",
		"indegree": "degree", "degree": "indegree", "pagerank-delta": "prdelta", "prdelta": "pagerank-delta",
		"reach": "reachability", "reachability": "reach"}
	budgeted := map[string]bool{"pagerank": true, "pr": true, "ppr": true}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return
		}
		if err := spec.Normalize(); err != nil {
			return
		}
		key := spec.cacheKey("digest")
		again := spec
		if err := again.Normalize(); err != nil {
			t.Fatalf("a normalized spec is refused the second time: %v\n%+v", err, spec)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("Normalize is not idempotent:\nonce  %+v\ntwice %+v", spec, again)
		}
		again.Snapshot = spec.Snapshot + "'"
		again.Workers = spec.Workers + 1
		again.ChannelDepth = spec.ChannelDepth + 1
		if alias, ok := aliases[spec.Kernel]; ok {
			again.Kernel = alias
		}
		if !budgeted[spec.Kernel] {
			again.PRIters = spec.PRIters + 1
		}
		policy := "never"
		if spec.Policy == policy {
			policy = "always"
		}
		flipped := spec.Aggregation == nil || !*spec.Aggregation
		switch {
		case spec.Engine == EngineSerial:
			again.Arch, again.Partitions, again.Computes, again.Partitioner = "distributed", spec.Partitions+1, spec.Computes+1, "hash"
			again.Seed, again.Policy, again.Aggregation, again.TreeFanIn = spec.Seed+1, policy, &flipped, spec.TreeFanIn+1
		case spec.Engine == EngineCluster:
			again.Policy = policy
		case spec.Arch == core.Distributed.String() || spec.Arch == core.DistributedNDP.String():
			again.Computes = spec.Computes + 1
			fallthrough
		case spec.Arch != core.DisaggregatedNDP.String():
			again.Policy, again.Aggregation = policy, &flipped
			fallthrough
		default:
			again.TreeFanIn = spec.TreeFanIn + 1
		}
		if got := again.cacheKey("digest"); got != key {
			t.Fatalf("cache key moved:\n%s\n%s", key, got)
		}
	})
}

// FuzzDecodeValues holds the value-vector decoder to its encoder on
// arbitrary strings: an error, or a vector whose encoding is the canonical
// base64 of exactly the bytes the string decoded to — NaN payloads and
// signed zeros included, since results are compared by their bytes.
func FuzzDecodeValues(f *testing.F) {
	f.Add("")
	f.Add(string(encoded([]float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Float64frombits(0x7FF0000000000123)})))
	f.Add("AAAAAAAA8D8")  // a float64 without its padding
	f.Add("AAAAAAAA8D8=") // eight bytes, canonical
	f.Add("AAAAAAAA")     // six bytes: not a vector
	f.Add("AAAA\nAAAA8D8=")
	f.Add("!!!!")
	f.Fuzz(func(t *testing.T, s string) {
		vals, err := DecodeValues(s)
		if err != nil {
			return
		}
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			t.Fatalf("DecodeValues accepted %q, which is not base64: %v", s, err)
		}
		if len(raw) != 8*len(vals) {
			t.Fatalf("%d bytes decoded to %d values", len(raw), len(vals))
		}
		for i, v := range vals {
			if got, want := math.Float64bits(v), binary.LittleEndian.Uint64(raw[8*i:]); got != want {
				t.Fatalf("value %d is %#x, its bytes say %#x", i, got, want)
			}
		}
		if got, want := string(encoded(vals)), base64.StdEncoding.EncodeToString(raw); got != want {
			t.Fatalf("re-encoding gives %q, canonical is %q", got, want)
		}
	})
}

// FuzzWaitParam feeds arbitrary query strings to the status route's wait
// parameter the way the handler receives them (URL.Query keeps the
// well-formed pairs of a malformed query) and requires a refusal or a
// park bound inside [0, MaxWait] that is the first wait value's duration,
// clamped: nothing a client can send parks a handler without bound.
func FuzzWaitParam(f *testing.F) {
	for _, q := range []string{
		"", "wait=1s", "wait=0", "wait=1000h", "wait=-1s", "wait=abc", "wait=", "wait",
		"wait=1s&wait=-1s", "x=1&wait=2.5ms", "wait=%zz", "wait=1h;x", "Wait=1s",
		"wait=9223372036854775807ns", "wait=-9223372036854775808ns", "wait=+30s", "wait=1e3s",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		d, err := parseWait(q)
		if err != nil {
			if d != 0 {
				t.Fatalf("parseWait(%q) failed (%v) yet returned %v", raw, err, d)
			}
			return
		}
		if d < 0 || d > MaxWait {
			t.Fatalf("parseWait(%q) = %v, outside [0, %v]", raw, d, MaxWait)
		}
		want := time.Duration(0)
		if q.Has("wait") {
			asked, err := time.ParseDuration(q.Get("wait"))
			if err != nil || asked < 0 {
				t.Fatalf("parseWait(%q) accepted wait=%q (%v, %v)", raw, q.Get("wait"), asked, err)
			}
			want = min(asked, MaxWait)
		}
		if d != want {
			t.Fatalf("parseWait(%q) = %v, want %v", raw, d, want)
		}
	})
}

// FuzzResultCache drives the result cache with an arbitrary stream of
// Gets and misses through its memo over a small key space and sizes that
// straddle the budget, beside a model that keeps the same entries in a
// plain slice, most recent first. A miss whose computation fails keeps
// nothing; one of a kept key is a hit and computes nothing. After every
// operation the cache answers as the model does, has evicted what the
// model evicted, and satisfies checkCache: its byte count is the sum of
// its live entries and exceeds the budget only for an entry admitted
// alone.
func FuzzResultCache(f *testing.F) {
	f.Add([]byte{0x81, 10, 0x82, 10, 0x01, 0, 0x83, 200, 0x02, 0})
	f.Add([]byte{0x81, 255, 0x82, 255, 0x83, 1, 0x81, 1})
	f.Add([]byte{0x80, 0, 0x00, 0, 0x8f, 100, 0x8f, 100, 0x0f, 0})
	f.Add([]byte{0xc1, 10, 0x01, 0, 0x81, 10, 0xc1, 50, 0x01, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxEntries, budget = 6, 400
		type entry struct {
			key  string
			size int64
		}
		var model []entry
		find := func(key string) int {
			for i, e := range model {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		front := func(i int) {
			e := model[i]
			copy(model[1:i+1], model[:i])
			model[0] = e
		}
		errFail := errors.New("the computation failed")
		c := testCache(maxEntries, budget)
		for ; len(ops) >= 2; ops = ops[2:] {
			key := fmt.Sprintf("key-%02d", ops[0]&0x0f)
			if ops[0]&0x80 == 0 {
				b, ok := c.Get(key)
				i := find(key)
				if ok != (i >= 0) || (ok && int64(len(key)+len(b)) != model[i].size) {
					t.Fatalf("Get(%s) = %d bytes, %v; the model holds it: %v", key, len(b), ok, i >= 0)
				}
				if ok {
					front(i)
				}
			} else {
				fails := ops[0]&0x40 != 0
				e := entry{key, int64(len(key)) + 2*int64(ops[1])}
				evicted, evictedBytes := c.results.evicted.Value(), c.results.evictedBytes.Value()
				computed := false
				_, err := c.result(context.Background(), key, func() ([]byte, error) {
					computed = true
					if fails {
						return nil, errFail
					}
					return make([]byte, 2*int(ops[1])), nil
				})
				var wantN, wantBytes, held int64
				i := find(key)
				switch {
				case i >= 0:
					front(i)
				case fails:
				default:
					for _, m := range model {
						held += m.size
					}
					for len(model) > 0 && (len(model) >= maxEntries || held+e.size > budget) {
						last := model[len(model)-1]
						model = model[:len(model)-1]
						held -= last.size
						wantN++
						wantBytes += last.size
					}
					model = append([]entry{e}, model...)
				}
				if computed != (i < 0) || (err != nil) != (i < 0 && fails) {
					t.Fatalf("miss of %s (kept %v, failing %v): computed %v, err %v", key, i >= 0, fails, computed, err)
				}
				n, nb := c.results.evicted.Value()-evicted, c.results.evictedBytes.Value()-evictedBytes
				if n != wantN || nb != wantBytes {
					t.Fatalf("keeping %s (%d bytes) evicted %d results %d bytes, the model %d and %d", key, e.size, n, nb, wantN, wantBytes)
				}
			}
			checkCache(t, c)
			if c.Len() != len(model) {
				t.Fatalf("cache holds %d entries, the model %d", c.Len(), len(model))
			}
			if err := nothingRunning(c); err != nil {
				t.Fatal(err)
			}
		}
	})
}
