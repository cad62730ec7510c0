#!/usr/bin/env bash
# Run every paired …On/…Off benchmark in the module and enforce the
# on/off overhead budget with `mcperf overhead`.
#
#   usage: overhead_bench.sh <out-file> <invocations>
#   e.g.   overhead_bench.sh overhead-bench.out 6
#
# Each invocation is one `go test ./...` over the benchmarks whose names
# end in On or Off, so a new pair is gated by its name alone. The set
# runs <invocations> times in separate processes, so each invocation's
# On rep pairs with an Off rep taken seconds later under correlated
# load (see cmdOverhead in cmd/mcperf for why that pairing is what makes
# a ratio gate meaningful on shared runners). -cpu 1 pins the benchmark
# names (no -N suffix) so ledger keys stay stable across hosts. -vet=off
# because go test vets the other packages while the first package's
# benchmarks run, which loads the first pair's On arm alone. One
# retry after a cooldown absorbs the remaining failure mode — a
# sustained load burst shifting an entire bench window; a genuine
# overhead regression fails both attempts. Only an over-budget verdict
# (exit 1) is retried: no complete pair (exit 2) fails at once.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <out-file> <invocations>" >&2
    exit 2
fi
OUT=$1
N=$2

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/mcperf" ./cmd/mcperf

run() {
    : > "$OUT"
    for _ in $(seq "$N"); do
        go test ./... -vet=off -run '^$' -bench 'On$|Off$' -cpu 1 \
            -benchtime .5s >> "$OUT"
    done
    "$BIN/mcperf" overhead < "$OUT"
}

rc=0
run || rc=$?
if [ "$rc" -eq 1 ]; then
    echo "overhead: over budget; cooling down 30s and retrying once" >&2
    sleep 30
    rc=0
    run || rc=$?
fi
exit "$rc"
