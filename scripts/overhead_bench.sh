#!/usr/bin/env bash
# Run a package's paired …On/…Off benchmarks and enforce the on/off
# overhead budget with `mcperf overhead`.
#
#   usage: overhead_bench.sh <pkg> <bench-regex> <out-file> <invocations>
#   e.g.   overhead_bench.sh ./internal/serve Recorder serve-bench.out 6
#          overhead_bench.sh ./internal/ssjoin JoinProgress progress-bench.out 6
#
# The benchmark set runs <invocations> times in separate processes, so
# each invocation's On rep pairs with an Off rep taken seconds later
# under correlated load (see cmdOverhead in cmd/mcperf for why that
# pairing is what makes a ratio gate meaningful on shared runners). One
# retry after a cooldown absorbs the remaining failure mode — a
# sustained load burst shifting an entire bench window; a genuine
# overhead regression fails both attempts. Only an over-budget verdict
# (exit 1) is retried: no complete pair (exit 2) fails at once.
set -euo pipefail

if [ $# -ne 4 ]; then
    echo "usage: $0 <pkg> <bench-regex> <out-file> <invocations>" >&2
    exit 2
fi
PKG=$1
BENCH=$2
OUT=$3
N=$4

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/mcperf" ./cmd/mcperf

run() {
    : > "$OUT"
    for _ in $(seq "$N"); do
        go test "$PKG" -run '^$' -bench "$BENCH" -cpu 1 \
            -benchtime .5s >> "$OUT"
    done
    "$BIN/mcperf" overhead < "$OUT"
}

rc=0
run || rc=$?
if [ "$rc" -eq 1 ]; then
    echo "overhead: $PKG $BENCH over budget; cooling down 30s and retrying once" >&2
    sleep 30
    rc=0
    run || rc=$?
fi
exit "$rc"
