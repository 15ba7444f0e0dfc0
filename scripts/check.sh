#!/usr/bin/env bash
# check.sh — the single gate every change must pass before merging.
#
# Every stage adds something the two full test tiers lack; anything that
# only re-ran a subset of them is gone. In order:
#   static      go build, go vet (copylocks included), gofmt -l empty,
#               no core.New or core.With* outside bench/ and internal/core/,
#               ndplint's 5 rules over the module (any finding fails)
#   tier 1      go test ./...
#   uncached    alloc gates at -count=1 (the two serve gates alone skip
#               under -race, whose instrumentation allocates on their paths)
#   benchmarks  every benchmark in the module, once (-benchtime 1x)
#   processes   ndpverify sweep, REPORT.md regenerated byte for byte,
#               ndpserve round-trip, ndpverify -served,
#               out-of-core stream -> container -> verified BFS, SSSP
#               and PageRank, the four architectures on the container
#               against the materialized graph, and gpart over the same
#               container
#   -count      cluster faults, parallel simulator, the kernel engine's
#               edge loops, store lifecycle (each -count=2), served
#               result, plan and trace sharing
#               (-count=10), ndpserve shutdown with a parked waiter
#               (-count=20), all under the race detector
#   tier 2      go test -race -count=1 ./...  (never from the test cache)
#   fuzz        a short budget per fuzz target (14)
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

# Every System outside the benchmark harness is built from a core.Spec:
# core.New and its options are bench/'s alone until they are deleted.
echo
echo "==> no core.New( or core.With outside bench/ and internal/core/"
second="$(grep -rn --include='*.go' -e 'core\.New(' -e 'core\.With' . | grep -v -e '^\./bench/' -e '^\./internal/core/' || true)"
if [ -n "$second" ]; then
    echo "$second"
    echo "check.sh: build these Systems from a core.Spec (Spec.System)" >&2
    exit 1
fi
echo "(none)"

# 5 rules (ndplint -list), each kept on a seeded mutant of the real
# sources that it alone reports (TestRulesCatchSeededMutants, in tier 1).
step go run ./cmd/ndplint ./...

step go test ./...

# Alloc gates, by name (any test ending in AllocGate): the hot loops are
# held by counts, not by a static model. TestEngineAllocGate is one
# kernel-engine iteration at zero (serial and staged, push and pull, over
# an in-memory graph, over a warm fully-resident container — an
# EdgeCopy kernel pinning edge ids alone, then SSSP pinning weights too —
# and over a full, thrashing one whose misses read through, and under a
# partition grid with an observer reading it — the simulator's shape);
# TestAllocGate a whole simulated run, whose added iterations may cost
# only their Records; TestFrontierReuseAllocGate a recycled frontier
# refill; TestStoreAllocGate the tier's pin/read/release sweep through
# Pin, PinEdges and PinLists, misses read through the one spare
# read-through buffer included; TestClusterAllocGate every
# actor's added iteration at a pinned count, flat and as a switch tree;
# TestServeHitAllocGate a cache-hit Submit at a pinned count;
# TestMemoHitAllocGate a warm plan and trace lookup at none;
# TestKeptTraceMissAllocGate a served miss of a kept trace at its output,
# its pricing's records and 4 KiB, the values neither cloned nor encoded;
# TestMarshalResultAllocs a served result's encoding, in one buffer of
# its exact length.
step go test -count=1 -run 'AllocGate$|^TestMarshalResultAllocs$' ./internal/sim/ ./internal/kernels/ ./internal/store/ \
    ./internal/cluster/ ./internal/serve/

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

# REPORT.md is ndpbench's markdown at its defaults, byte for byte: every
# paper table and figure, every extension artifact and every shape check.
# A change that means to move a row regenerates the file in the same
# diff; any other difference fails the gate.
echo
echo "==> ndpbench -scale 0.5 -seed 42 -format markdown all (must equal REPORT.md)"
REPORT_OUT="$(mktemp)"
go run ./cmd/ndpbench -scale 0.5 -seed 42 -format markdown all >"$REPORT_OUT"
if ! cmp -s REPORT.md "$REPORT_OUT"; then
    diff REPORT.md "$REPORT_OUT" | head -40 || true
    rm -f "$REPORT_OUT"
    echo "check.sh: ndpbench output differs from REPORT.md; regenerate it if the change means to move a row" >&2
    exit 1
fi
rm -f "$REPORT_OUT"
echo "(identical)"

# Service round-trip: boot ndpserve on an ephemeral loopback port with a
# preloaded snapshot, drive a submit/wait/result round-trip through
# `ndprun -server` (which must report the resubmission, and one spelled
# with the kernel's alias, as cache hits),
# check that the served job and a local `ndprun` run with the same flags
# are one system (same engine, iterations and moved bytes: both take
# core's defaults), then shut the server down cleanly (SIGTERM →
# graceful drain).
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
        -dataset wiki-talk -scale 0.1 -kernel cc -csv >/tmp/ndpserve.roundtrip 2>/dev/null; then
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
# So must a third spelled with the kernel's alias: the key is the run's
# canonical form (core.Spec.Canonical), not its spelling.
go run ./cmd/ndprun -server "http://$SERVE_ADDR" -snapshot demo \
    -dataset wiki-talk -scale 0.1 -kernel connectedcomponents 2>&1 | tee /tmp/ndpserve.roundtrip3
grep -q "result cache" /tmp/ndpserve.roundtrip3 || {
    echo "check.sh: ndpserve resubmission under the kernel's alias was not a cache hit" >&2
    exit 1
}
# Served CSV columns: Engine,Iterations,Converged,Moved,...; local:
# Architecture,Iterations,Moved,...
go run ./cmd/ndprun -dataset wiki-talk -scale 0.1 -kernel cc -csv >/tmp/ndprun.local
served_row="$(sed -n 2p /tmp/ndpserve.roundtrip | cut -d, -f1,2,4)"
local_row="$(sed -n 2p /tmp/ndprun.local | cut -d, -f1-3)"
echo "served: $served_row  local: $local_row"
[ -n "$served_row" ] && [ "$served_row" = "$local_row" ] || {
    echo "check.sh: the served job and the local ndprun run differ in engine, iterations or moved bytes" >&2
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
# then run BFS, SSSP and PageRank from the container under a deliberately
# tight local-memory budget — the kernel engine (-arch serial) with the
# store as its adjacency source — and verify each result bit-identical
# to the same run over the materialized in-RAM graph. BFS pins edge ids
# alone, SSSP also pins the weight column (upgrading frames in place),
# and PageRank is a float-sum kernel. The four simulated architectures
# then price PageRank read from the container at the same budget, and
# their summary rows must be byte-identical to the same flags with the
# container materialized by -graph. This is the end-to-end proof behind
# the store's scale story. gpart then partitions the same container with
# every partitioner, so the partition-quality command reads the format
# the streaming writer produces.
echo
echo "==> out-of-core store round-trip"
STORE_DIR="$(mktemp -d)"
trap 'rm -rf "$STORE_DIR"' EXIT
go run ./cmd/graphgen -dataset com-livejournal -scale 1 -stream \
    -spill-edges 65536 -segment-bytes 16384 -out "$STORE_DIR/lj.gcsr2"
for kernel in bfs sssp pagerank; do
    go run ./cmd/ndprun -store "$STORE_DIR/lj.gcsr2" -store-mem 65536 \
        -store-verify -kernel "$kernel" -arch serial
done
go run ./cmd/ndprun -store "$STORE_DIR/lj.gcsr2" -store-mem 65536 \
    -kernel pagerank -arch all -partitioner hash -csv >"$STORE_DIR/store.csv"
go run ./cmd/ndprun -graph "$STORE_DIR/lj.gcsr2" \
    -kernel pagerank -arch all -partitioner hash -csv >"$STORE_DIR/graph.csv"
if ! head -n "$(wc -l <"$STORE_DIR/graph.csv")" "$STORE_DIR/store.csv" | cmp -s - "$STORE_DIR/graph.csv"; then
    echo "check.sh: the architectures on the container and on the materialized graph print different rows" >&2
    exit 1
fi
go run ./cmd/gpart -in "$STORE_DIR/lj.gcsr2" -k 8 -method all
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

# The kernel engine's per-pair edge loops under the race detector at
# -count=2: each scatter loop writes its worker's own scratch, at one and
# several worker counts, and every pair must still match the reference
# and the Serial machine bit for bit.
step go test -race -count=2 -run '^(TestFusedLoopsMatchReference|TestEngineBitIdenticalAtEveryWorkerCount|TestParallelMatchesSerialAllKernels)$' ./internal/kernels/

# Store lifecycle under the race detector at -count=2: the pin/release
# protocol and the read-through buffers hammered from many goroutines;
# the staged machine's concurrent read-throughs held inside the budget;
# the kernel engine over the container (serial cursor and staged
# per-chunk pins) returning every pin when a run is cancelled or hits a
# corrupt segment; the no-leaked-goroutines gate; and the tier counters
# after a fixed pin sequence, which what loads and what reads through
# makes a pure function of that sequence — the tier's
# correctness-under-concurrency claims must hold run over run.
step go test -race -count=2 \
    -run '^TestStorePinConcurrentHammer$|^TestStoreStaysWithinBudget$|^TestStoreRunCancellation$|^TestStoreRunCorruptSegment$|^TestStoreLeavesNoGoroutines$|^TestStoreStatsDeterministic$' \
    ./internal/store/

# The result cache's memo of results, plans and traces under two racing
# executors, 10 times under the race detector: seedless LDG jobs share one
# partitioning — the first miss partitions, the other waits, and every
# job resolves the one kept *Assignment; eight jobs that differ only in
# architecture and compute nodes must execute the kernel once; a running
# job's identical twin waits for its execution and is a cache hit, exec
# run once; the memo's waiters, cancelled or outliving a failed
# computation, leave nothing running; and a kept trace's encoding, read
# by concurrent pricings, is charged to the budget and served unchanged.
step go test -race -count=10 -run '^(TestSeedlessPlansAreShared|TestOneExecutionIsPricedPerArchitecture|TestRunJobSecondChanceCache|TestEveryLockIsReleasedOnEveryPath|TestKeptTraceMissAllocGate|TestTracesShareTheResultBudget)$' ./internal/serve/

# ndpserve's SIGTERM drain with a waiter parked, 20 times under the race
# detector: its slower scheduling is the load that once let a pooled,
# never-used client connection hold the drain for net/http's 5 s grace.
step go test -race -count=20 -run '^TestShutdownWithParkedWaiter$' ./cmd/ndpserve/

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
        # The multilevel partitioner's contract (coverage, balance,
        # coarsening round trip) on arbitrary graphs.
        "FuzzMultilevelPartition ./internal/partition/"
        # The same partitioner against earlier parents' phases kept
        # verbatim (multilevel_ref_test.go): every level's CSR and cmap,
        # every initial partition, every rebalance, refine on the initial,
        # skewed and rebalanced parts, and the final Parts bit for bit.
        "FuzzMultilevelMatchesReference ./internal/partition/"
        # The gcsr2 segment codec: arbitrary adjacency lists must round-
        # trip exactly, and arbitrary payload bytes must decode to a typed
        # error or a valid segment — never a panic — and a read-through
        # of a sparse subset must agree, refusing framing damage in the
        # lists it skips.
        "FuzzSegmentCodec ./internal/store/"
        # The adjacency decoder's inline one-to-three-byte varint paths
        # against a plain binary.Uvarint reference: same ids, same bytes
        # consumed, same error; the read-through's word-at-a-time skip
        # against the same reference.
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
        # Normalize changes nothing, the cache key ignores Workers and
        # every field the spec's engine does not read), and a
        # value string must decode to an error or to a vector that
        # re-encodes to the canonical base64 of the same bytes.
        "FuzzJobSpecNormalize ./internal/serve/"
        "FuzzDecodeValues ./internal/serve/"
        # The encoder of every served result: any result marshals to the
        # bytes json.Marshal of its wire struct writes, or both fail alike.
        "FuzzMarshalResult ./internal/serve/"
        # The status route's wait parameter: any query string is refused
        # or yields a park bound inside [0, serve.MaxWait].
        "FuzzWaitParam ./internal/serve/"
        # The result cache under any stream of Gets and misses through
        # its memo, some failing, against a slice model: same hits, same
        # evictions, a failed miss keeping nothing, bytes held equal to the
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
