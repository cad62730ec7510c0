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
#
# Pairs under 100 µs/op (the serve request envelopes, 4-13 µs) swing by
# ±15-20% between invocations on a shared host, On and Off arms alike.
# The load drifts over seconds, so a longer -benchtime does not average
# it out (at 2 s the paired ratio still read 0.85-1.22 on unchanged
# code). What narrows their median is more paired ratios: after the
# <invocations> full runs, each such pair runs 5 × <invocations> more
# times alone, at -benchtime .1s, which costs about a second each.
# Those short runs go to <out-file>.fast, which only the gate reads:
# <out-file> keeps <invocations> samples per benchmark at .5s, the
# population `mcperf record -from-bench` ledgers and BENCH_overhead.json
# was taken from. Sub-benchmark pairs (names with '/') get no short
# runs, since go test splits a -bench pattern at '/'.
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
    # One line per package holding a top-level pair under 100 µs/op:
    # the package and a -bench pattern naming those pairs' two arms.
    fast=$(awk '
        /^pkg: / { pkg = $2 }
        /^Benchmark[^ \t\/]*(On|Off)[ \t]/ && $3 + 0 < 100000 {
            base = $1; sub(/(On|Off)$/, "", base)
            if (!((pkg, base) in seen)) {
                seen[pkg, base] = 1
                pats[pkg] = pats[pkg] (pats[pkg] == "" ? "" : "|") base
            }
        }
        END { for (p in pats) print p, "^(" pats[p] ")(On|Off)$" }
    ' "$OUT" | sort)
    : > "$OUT.fast"
    if [ -n "$fast" ]; then
        for _ in $(seq $((5 * N))); do
            while read -r pkg pat; do
                go test "$pkg" -vet=off -run '^$' -bench "$pat" -cpu 1 \
                    -benchtime .1s >> "$OUT.fast"
            done <<< "$fast"
        done
    fi
    cat "$OUT" "$OUT.fast" | "$BIN/mcperf" overhead
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
