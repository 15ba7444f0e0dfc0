#!/usr/bin/env bash
# ledgers.sh — run one fixed matrix of ndprun jobs from the checkout at
# REPO and write every run's summary and per-iteration ledger into
# OUTDIR, one file each. Run it on two trees and compare the outputs:
#
#   scripts/ledgers.sh ../parent /tmp/old
#   scripts/ledgers.sh .         /tmp/new
#   diff -r /tmp/old /tmp/new    # no output: no reported number moved
#
# The matrix is 3 datasets x 4 kernels x 60 runs = 720 runs:
#   - distributed, distributed-ndp and disaggregated (summary + ledger);
#   - disaggregated-ndp x 7 offload policies x aggregation on/off x
#     CXL-CMS/UPMEM x switch buffer unlimited/64 (summary + ledger);
#   - one faulted cluster run on a fan-in-2 switch tree (drops,
#     duplicates, delays and a crash; summary and fault counts).
# Ledgers print time and energy at full float precision, so a change to
# the model's arithmetic shows as a diff even where the summary's
# rounding would hide it. About 3 minutes on 2 cores.
#
# It builds ndprun once into a temporary directory and writes nothing
# into REPO. It is not a check.sh stage: it needs a second tree (the
# parent commit) to mean anything.
#
# Usage: scripts/ledgers.sh REPO OUTDIR

set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: scripts/ledgers.sh REPO OUTDIR" >&2
    exit 2
fi
REPO="$1"
OUTDIR="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
(cd "$REPO" && go build -o "$tmp/ndprun" ./cmd/ndprun)
mkdir -p "$OUTDIR"
OUTDIR="$(cd "$OUTDIR" && pwd)"

# run NAME ARGS... writes NAME.txt (stdout and stderr) and, for
# simulator runs, NAME.csv (the -itercsv ledger). Runs from OUTDIR so the
# "wrote ledger to" line names the file relative to it and matches
# across trees. A failing run prints its output and stops the script.
run() {
    local name="$1"
    shift
    if ! (cd "$OUTDIR" && "$tmp/ndprun" "$@" >"$name.txt" 2>&1); then
        cat "$OUTDIR/$name.txt" >&2
        exit 1
    fi
}

n=0
for ds in wiki-talk com-livejournal twitter7; do
    for k in bfs sssp cc pagerank; do
        common=(-dataset "$ds" -scale 0.1 -seed 7 -kernel "$k")
        for arch in distributed distributed-ndp disaggregated; do
            run "$ds.$k.$arch" "${common[@]}" -arch "$arch" -itercsv "$ds.$k.$arch.csv"
            n=$((n + 1))
        done
        for pol in always degree-threshold heuristic mixed-oracle never oracle partition-heuristic; do
            for agg in true false; do
                for dev in CXL-CMS UPMEM; do
                    for buf in 0 64; do
                        name="$ds.$k.disaggregated-ndp.$pol.agg-$agg.$dev.buf$buf"
                        run "$name" "${common[@]}" -arch disaggregated-ndp -policy "$pol" \
                            -aggregate="$agg" -device "$dev" -switchbuffer "$buf" -itercsv "$name.csv"
                        n=$((n + 1))
                    done
                done
            done
        done
        run "$ds.$k.cluster-faulted" "${common[@]}" -cluster -treefanin 2 \
            -fault-seed 11 -fault-drop 0.05 -fault-dup 0.05 -fault-delay 0.05 -crash 1@1
        n=$((n + 1))
    done
done
echo "ledgers.sh: $n runs written to $OUTDIR"
