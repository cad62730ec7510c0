#!/usr/bin/env bash
# Compare the session benchmark's reference digests of a git revision
# with those of the working tree: same digests on every workload means a
# change left every session's output untouched.
#
#   usage: bench_refs.sh <rev> [seed...]      (seeds default to 1 2)
#   e.g.   bash scripts/bench_refs.sh HEAD
#          bash scripts/bench_refs.sh HEAD~1 1 2 3
#
# Both trees are copied to a temporary directory outside the repository
# (<rev> with git archive, the working tree as git sees it: tracked and
# untracked files, ignored ones left out). Into each copy's benchmark/ the
# script drops a throwaway test that runs newEnv for every workload and
# seed — the untimed warm-up sessions whose digests the benchmark checks
# every timed session against — and prints the digests. It diffs the two
# outputs and exits 1 if they differ. Nothing is written under the
# repository; the copies are removed on exit.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [seed...]" >&2
    exit 2
fi
REV=$1
shift
SEEDS=${*:-1 2}

cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

mkdir -p "$TMP/base" "$TMP/work"
git archive "$REV" | tar -x -C "$TMP/base"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        [ -e "$f" ] && printf '%s\0' "$f"
    done |
    tar --null -T - -c | tar -x -C "$TMP/work"

for tree in base work; do
    cat > "$TMP/$tree/benchmark/zz_bench_refs_test.go" <<EOF
package main

import (
	"fmt"
	"testing"
)

func TestBenchRefs(t *testing.T) {
	for _, seed := range []int64{$(echo "$SEEDS" | tr ' ' ',')} {
		for _, w := range workloads {
			e, err := newEnv(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			fmt.Printf("%s seed=%d refs=%v\n", w.name, seed, e.ref)
			e.close()
		}
	}
}
EOF
    echo "== $tree: digests at seeds $SEEDS" >&2
    (cd "$TMP/$tree/benchmark" &&
        GOWORK=off GOFLAGS= go test -count=1 -run '^TestBenchRefs$' -v . |
        grep ' refs=' > "$TMP/$tree.refs")
done

cat "$TMP/work.refs"
if diff -u --label "$REV" --label "working tree" "$TMP/base.refs" "$TMP/work.refs"; then
    echo "reference digests identical to $REV" >&2
else
    echo "reference digests differ from $REV" >&2
    exit 1
fi
