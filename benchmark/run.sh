#!/usr/bin/env bash
# Builds the session benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload m2-dense --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) and every trace file the benchmark
# writes stays under .bench_build/ in that directory. The build needs the
# repository's go.mod one level above this script, so a copy of the
# benchmark without the program it measures fails here, before any result
# is printed.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and usage counters under the user's
# configuration directory.
export XDG_CONFIG_HOME="$out/config"
# The module needs nothing from the network: its only dependency is the
# repository itself, wired in by a replace directive.
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go -C "$here" build -buildvcs=false -o "$out/mcbenchmark" .
exec "$out/mcbenchmark" -trace-out "$out" "$@"
