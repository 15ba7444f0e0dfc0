#!/usr/bin/env bash
# check.sh — the single gate every change must pass before merging.
#
# Every stage adds something the two full test tiers lack; anything that
# only re-ran a subset of them is gone. In order:
#   static      go build, go vet (copylocks included), gofmt -l empty,
#               ndplint's 11 rules over the module (any finding fails),
#               ndplint -fix -diff empty
#   tier 1      go test ./...
#   uncached    alloc gates at -count=1 (they skip under -race)
#   benchmarks  every benchmark in the module, once (-benchtime 1x)
#   processes   ndpverify sweep, ndpserve round-trip, ndpverify -served,
#               out-of-core stream -> container -> verified BFS
#   -count=2    cluster faults, parallel simulator, store lifecycle,
#               each under the race detector
#   tier 2      go test -race -count=1 ./...  (never from the test cache)
#   fuzz        a short budget per fuzz target (16)
# Any stage failing fails the gate.
#
# Usage: scripts/check.sh [fuzz-seconds]
#   fuzz-seconds  per-target fuzz budget (default 10; 0 skips fuzzing)

set -euo pipefail
cd "$(dirname "$0")/.."

FUZZ_SECONDS="${1:-10}"
case "$FUZZ_SECONDS" in
    ''|*[!0-9]*)
        echo "usage: scripts/check.sh [fuzz-seconds]  (got: '$FUZZ_SECONDS')" >&2
        exit 2
        ;;
esac

step() {
    echo
    echo "==> $*"
    "$@"
}

step go build ./...
step go vet ./...

echo
echo "==> gofmt -l cmd internal bench (must be empty)"
unformatted="$(gofmt -l cmd internal bench)"
if [ -n "$unformatted" ]; then
    echo "$unformatted"
    echo "check.sh: unformatted files; run: gofmt -w on the files above" >&2
    exit 1
fi
echo "(empty)"

# 11 rules (ndplint -list), each kept on a seeded mutant of the real
# sources that it alone reports (TestRulesCatchSeededMutants, in tier 1).
step go run ./cmd/ndplint ./...

# Fix hygiene: every fixable finding must already be fixed in the tree,
# so -fix -diff over the module produces no output. A non-empty diff
# means someone committed code ndplint knows how to repair mechanically.
echo
echo "==> ndplint -fix -diff (must be empty)"
fixdiff="$(go run ./cmd/ndplint -fix -diff ./...)"
if [ -n "$fixdiff" ]; then
    echo "$fixdiff"
    echo "check.sh: outstanding mechanical fixes; run: go run ./cmd/ndplint -fix ./..." >&2
    exit 1
fi
echo "(empty)"

step go test ./...

# Alloc gates, by name (any test ending in AllocGate): the steady state
# must allocate nothing — the measured outcome the perfflow rules exist
# to protect. TestEngineAllocGate is one kernel-engine iteration (serial
# and staged, push and pull, over an in-memory graph and over a warm
# fully-resident container, and under a partition grid with an observer
# reading it — the simulator's shape); TestAllocGate a whole simulated
# run, whose added iterations may cost only their Records;
# TestFrontierReuseAllocGate a recycled frontier refill;
# TestStoreAllocGate the tier's pin/read/release sweep, misses served
# from the eviction freelist included.
step go test -count=1 -run 'AllocGate$' ./internal/sim/ ./internal/kernels/ ./internal/store/

# Every benchmark runs once: the ones changes cite as evidence
# (EngineEdgePath, StoreMissSweep, ClusterRun, MultilevelPartition,
# StoreEngine, ServeHit) and the paper-artifact ones at the root must keep
# building and running, or the next number quoted from them is from code
# that no longer exists. A single iteration times nothing; it only proves
# they run.
step go test -run '^$' -bench . -benchtime 1x ./...

# ndpverify smoke: the seeded scenario sweep the README documents. Runs
# the whole harness end to end; any oracle violation fails the gate with
# a shrunken, replayable reproducer in the log.
step go run ./cmd/ndpverify -seed 1 -scenarios 25

# Service round-trip: boot ndpserve on an ephemeral loopback port with a
# preloaded snapshot, drive a submit/wait/result round-trip through
# `ndprun -server` (which must report the resubmission as a cache hit),
# then run the served-vs-offline oracle battery in-process and shut the
# server down cleanly (SIGTERM → graceful drain).
echo
echo "==> ndpserve round-trip"
SERVE_ADDR="127.0.0.1:18090"
SERVE_LOG="$(mktemp)"
go build -o /tmp/ndpserve.check ./cmd/ndpserve
/tmp/ndpserve.check -addr "$SERVE_ADDR" -snapshot demo=wiki-talk:0.1 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    if go run ./cmd/ndprun -server "http://$SERVE_ADDR" -snapshot demo \
        -dataset wiki-talk -scale 0.1 -kernel cc >/tmp/ndpserve.roundtrip 2>/dev/null; then
        break
    fi
    sleep 0.1
done
cat /tmp/ndpserve.roundtrip
# A second identical submission must be answered from the result cache
# (the cache-hit note goes to stderr, so capture both streams).
go run ./cmd/ndprun -server "http://$SERVE_ADDR" -snapshot demo \
    -dataset wiki-talk -scale 0.1 -kernel cc 2>&1 | tee /tmp/ndpserve.roundtrip2
grep -q "result cache" /tmp/ndpserve.roundtrip2 || {
    echo "check.sh: ndpserve resubmission was not a cache hit" >&2
    exit 1
}
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || {
    echo "check.sh: ndpserve did not shut down cleanly" >&2
    cat "$SERVE_LOG" >&2
    exit 1
}
trap - EXIT
echo "ok (server log: $(grep -c . "$SERVE_LOG") lines, clean shutdown)"

# Served-vs-offline oracle: every generated scenario also round-trips
# through an in-process ndpserve instance; the HTTP-served bytes must be
# bit-identical to the direct core run and the resubmission must hit the
# result cache.
step go run ./cmd/ndpverify -seed 1 -scenarios 8 -served

# Out-of-core round-trip: stream a com-livejournal stand-in straight to
# a gcsr2 container (the spill path — no full in-RAM graph ever built),
# then run BFS from the container under a deliberately tight local-memory
# budget — core.StoreEngine, i.e. the kernel engine with the store as its
# adjacency source — and verify the result bit-identical to the serial
# engine over the materialized in-RAM graph. This is the end-to-end proof
# behind the store's scale story.
echo
echo "==> out-of-core store round-trip"
STORE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_DIR"' EXIT
go run ./cmd/graphgen -dataset com-livejournal -scale 1 -stream \
    -spill-edges 65536 -segment-bytes 16384 -out "$STORE_DIR/lj.gcsr2"
go run ./cmd/ndprun -store "$STORE_DIR/lj.gcsr2" -store-mem 65536 \
    -store-verify -kernel bfs
rm -rf "$STORE_DIR"
trap - EXIT

# The cluster fault tests get a dedicated -race stage at -count=2: fault
# injection + recovery is the code most exposed to scheduling, and the
# determinism claims must hold run over run with the race detector's
# altered timing.
step go test -race -count=2 -run '^TestFault' ./internal/cluster/

# The simulator's bit-identity claim gets the same treatment: every
# kernel × architecture × worker-count combination must match Workers=1
# exactly, twice, under the race detector's altered scheduling. This is
# the kernel engine's worker pool under the partition grid, with the
# accountant observing every iteration.
step go test -race -count=2 -run '^TestParallelMatchesSerial$' ./internal/sim/

# Store lifecycle under the race detector at -count=2: the pin/release
# refcount protocol hammered from many goroutines; the kernel engine over
# the container (serial cursor and staged per-chunk pins) returning every
# refcount to baseline when a run is cancelled or hits a corrupt segment;
# the no-leaked-goroutines gate; and the tier counters after a fixed pin
# sequence, which the victim rule makes a pure function of that sequence
# — the tier's correctness-under-concurrency claims must hold run over
# run.
step go test -race -count=2 \
    -run '^TestStorePinConcurrentHammer$|^TestStoreRunCancellation$|^TestStoreRunCorruptSegment$|^TestStoreLeavesNoGoroutines$|^TestStoreStatsDeterministic$' \
    ./internal/store/

# The full race tier, uncached: the verification harness's differential
# oracles execute every layer (sim, cluster, core, partition, gen) and
# must never be satisfied by a cached result.
step go test -race -count=1 ./...

if [ "$FUZZ_SECONDS" -gt 0 ]; then
    # Fuzz targets as "name package" pairs — add a line to add a target.
    # -fuzz matches by regex; each target needs its own run because the
    # fuzz engine refuses a pattern matching more than one target.
    fuzz_targets=(
        "FuzzReadEdgeList ./internal/gio/"
        "FuzzReadBinary ./internal/gio/"
        # The CFG builder underlies the perfflow and lifeflow rules; fuzz
        # it on arbitrary function bodies so lint never panics on weird
        # code.
        "FuzzBuildCFG ./internal/lint/flow/"
        # The multilevel partitioner's contract (coverage, balance,
        # coarsening round trip) on arbitrary graphs.
        "FuzzMultilevelPartition ./internal/partition/"
        # The same partitioner against the parent's sort-and-scan phases
        # (multilevel_ref_test.go): every level's CSR and cmap, every
        # rebalance, and the final Parts bit for bit.
        "FuzzMultilevelMatchesReference ./internal/partition/"
        # The escape lattice behind the perfflow rules: arbitrary
        # function bodies must reach a deterministic, monotone fixpoint
        # without panicking.
        "FuzzEscapeLattice ./internal/lint/perfflow/"
        # The obligation lattice behind the lifeflow rules: same
        # contract — deterministic fixpoints, and forgetting module
        # facts only ever grows the leak set.
        "FuzzLifecycleLattice ./internal/lint/lifeflow/"
        # The gcsr2 segment codec: arbitrary adjacency lists must round-
        # trip exactly, and arbitrary payload bytes must decode to a typed
        # error or a valid segment — never a panic.
        "FuzzSegmentCodec ./internal/store/"
        # The adjacency decoder's inline one-to-three-byte varint paths
        # against a plain binary.Uvarint reference: same ids, same bytes
        # consumed, same error.
        "FuzzDecodeCompressedAdjacency ./internal/graph/"
        # The engine's fused edge loops against a reference that calls
        # Emit, Combine and Reduce as plain functions: small random graphs
        # with raw weight bits, every machine, grid and direction.
        "FuzzFusedTraversal ./internal/kernels/"
        # The cluster actors' dense accumulator against the map folded in
        # arrival order and emitted through a sort that it replaced: same
        # indices ascending, same value bits, empty after every drain.
        "FuzzDenseAccumulator ./internal/cluster/"
        # The service's two decoders of outside input: a submission body
        # must normalize to an error or to a canonical spec (a second
        # Normalize changes nothing, the cache key ignores Workers), and a
        # value string must decode to an error or to a vector that
        # re-encodes to the canonical base64 of the same bytes.
        "FuzzJobSpecNormalize ./internal/serve/"
        "FuzzDecodeValues ./internal/serve/"
        # The status route's wait parameter: any query string is refused
        # or yields a park bound inside [0, serve.MaxWait].
        "FuzzWaitParam ./internal/serve/"
        # The result cache under any stream of Gets and Puts against a
        # slice model: same hits, same evictions, bytes held equal to the
        # sum of live entries and over budget only for one entry alone.
        "FuzzResultCache ./internal/serve/"
        # ndpverify's replay decoder: arbitrary bytes must come back as an
        # error or as a scenario that passes Validate and whose replay
        # JSON parses to the same value.
        "FuzzParseScenario ./internal/verify/"
    )
    for target in "${fuzz_targets[@]}"; do
        read -r name pkg <<< "$target"
        step go test -run '^$' -fuzz "^${name}\$" -fuzztime "${FUZZ_SECONDS}s" "$pkg"
    done
else
    echo
    echo "==> fuzzing skipped (budget 0)"
fi

echo
echo "check.sh: all stages passed"
