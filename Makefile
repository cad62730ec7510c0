# MatchCatcher developer entry points. `make lint` mirrors the CI lint
# gates: go vet + mclint (the repo's own analyzer suite, tier-1) always
# run; staticcheck runs when installed locally (CI pins it, see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt-check mclint lint-hotalloc lint vuln fuzz-smoke perf-baseline perf-check serve-smoke

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file differs from gofmt's output, and
# lists the files that do.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# mclint enforces the determinism/telemetry/concurrency invariants
# (mapiter, seededrand, metricname, spanend, floatcmp, lockorder,
# ctxflow, statemachine, atomicmix, hotalloc). Suppressions
# (//lint:allow <analyzer> <reason>) are counted in the summary, never
# silent. See DESIGN.md "Static Analysis & Invariants".
mclint:
	$(GO) run ./cmd/mclint -summary ./...

# lint-hotalloc is the escape-analysis half of the //mc:hotpath
# contract: it recompiles the module with -gcflags=-m and feeds the
# compiler's "escapes to heap" / "moved to heap" diagnostics to the
# hotalloc analyzer, mechanically proving the annotated hot paths
# (ssjoin heap sifts, FlightRecorder.Record) stay allocation-free.
# It is a separate target because the -gcflags=-m compile does not
# share the plain build cache.
lint-hotalloc:
	$(GO) run ./cmd/mclint -escapes -only hotalloc -summary ./...

lint: vet fmt-check mclint lint-hotalloc
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs honnef.co/go/tools@2025.1.1)"; \
	fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipped (CI runs golang.org/x/vuln@v1.1.4)"; \
	fi

# End-to-end smoke for mcserve: builds the binaries, runs a gold-labeled
# CLI session, replays it over HTTP with a scripted client, byte-compares
# the two canonical reports, and SIGTERMs the server mid-join to prove
# the graceful drain (see scripts/smoke_mcserve.sh).
serve-smoke:
	bash scripts/smoke_mcserve.sh

fuzz-smoke:
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzSoundex -fuzztime 10s
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzRuleBlock -fuzztime 10s
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzPairSet -fuzztime 10s
	$(GO) test ./internal/tokenize -run '^$$' -fuzz FuzzNormalize -fuzztime 10s
	$(GO) test ./internal/rforest -run '^$$' -fuzz FuzzTrain -fuzztime 10s
	$(GO) test ./internal/ranker -run '^$$' -fuzz FuzzAggregate -fuzztime 10s
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzMergeTopK -fuzztime 10s
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzPrefixFilter -fuzztime 10s
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzNewCorpus -fuzztime 10s
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzTableCSV -fuzztime 10s
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzColumnHelpers -fuzztime 10s

# Performance regression observability (DESIGN.md "Performance
# Regression Observability"). perf-baseline reruns the pinned perf-gate
# workload PERF_COUNT times on this machine and regenerates the
# committed baseline mechanically with `mcperf report` — never edit
# BENCH_perf_gate.json by hand. perf-check repeats the workload and
# compares against the committed baseline; it exits non-zero on a
# statistically significant regression (recall always blocks; latency
# blocks only when the baseline came from a comparable machine).
PERF_LEDGER  ?= perf-ledger.jsonl
PERF_COUNT   ?= 5
PERF_SCALE   ?= 0.1
PERF_SEED    ?= 1

perf-baseline:
	rm -f $(PERF_LEDGER)
	$(GO) run ./cmd/mcbench -exp perf-gate -scale $(PERF_SCALE) -seed $(PERF_SEED) \
		-count $(PERF_COUNT) -ledger $(PERF_LEDGER)
	$(GO) run ./cmd/mcperf report -ledger $(PERF_LEDGER) -format json \
		-desc "pinned perf-gate workload: M2 joins (HASH1/HASH2/SIM1, k=1000) + M2/HASH1 debug session at scale $(PERF_SCALE), seed $(PERF_SEED)" \
		-out BENCH_perf_gate.json

perf-check:
	rm -f $(PERF_LEDGER)
	$(GO) run ./cmd/mcbench -exp perf-gate -scale $(PERF_SCALE) -seed $(PERF_SEED) \
		-count 4 -ledger $(PERF_LEDGER)
	$(GO) run ./cmd/mcperf check -baseline BENCH_perf_gate.json -ledger $(PERF_LEDGER)

# On/off overhead gates, one per paired benchmark set. Each gate G
# declares its package, benchmark regex and baseline description below;
# one set of pattern recipes serves them all:
#
#   make G-overhead-bench     run the pairs and enforce the 5% budget
#   make G-overhead-check     ...then mcperf check against BENCH_G_overhead.json
#   make G-overhead-baseline  ...then regenerate BENCH_G_overhead.json
#
# scripts/overhead_bench.sh runs the set OVERHEAD_COUNT times so each
# invocation's On rep pairs with an Off rep taken seconds later under
# correlated load, and retries once after a cooldown if a load burst
# shifted the window. The median paired on/off ratio must stay inside
# the 5% budget (mcperf overhead — same-process ratios, so meaningful on
# any machine); -cpu 1 pins the benchmark names (no -N suffix) so ledger
# keys stay stable across hosts. mcperf check blocks on absolute drift
# only when the host matches the committed baseline's fingerprint. CI's
# overhead matrix runs the same steps, one row per gate.
OVERHEAD_COUNT ?= 6

# The bench step is a prerequisite of the other two, not a file: keep
# make from treating it as an intermediate to delete.
.SECONDARY:

# serve: the full HTTP envelope with the flight recorder on vs off.
serve_PKG   := ./internal/serve
serve_BENCH := Recorder
serve_DESC  := serve request envelope with the flight recorder on vs off: full HTTP stack (mux, envelope, metrics, canonical log) via httptest on GET /healthz and GET /v1/sessions/<id>
# progress: JoinAll with and without a Progress tracker attached.
progress_PKG   := ./internal/ssjoin
progress_BENCH := JoinProgress
progress_DESC  := JoinAll with a Progress tracker attached vs not: 900x900 synthetic corpus, city blocker, k=500
# join: the M2 JoinOne with a live registry vs telemetry.Disabled()
# (Telemetry pair) and with a trace tree vs without (Trace pair).
join_PKG   := .
join_BENCH := JoinOneM2
join_DESC  := M2 JoinOne (Music2 at 1/10 scale, HASH1 artist_name, root config, k=1000): live registry vs telemetry.Disabled() (Telemetry pair), and a per-run trace tree on a live registry vs none (Trace pair)

%-overhead-bench:
	bash scripts/overhead_bench.sh $($*_PKG) $($*_BENCH) $*-bench.out $(OVERHEAD_COUNT)
	rm -f $*-overhead-ledger.jsonl
	$(GO) run ./cmd/mcperf record -ledger $*-overhead-ledger.jsonl -from-bench \
		-exp $*-overhead -seed 1 < $*-bench.out

%-overhead-baseline: %-overhead-bench
	$(GO) run ./cmd/mcperf report -ledger $*-overhead-ledger.jsonl -format json \
		-desc "$($*_DESC), -cpu 1, $(OVERHEAD_COUNT) paired invocations; budget: the On arm adds <5% on the median paired on/off ratio (gated by mcperf overhead via scripts/overhead_bench.sh)" \
		-out BENCH_$*_overhead.json

%-overhead-check: %-overhead-bench
	$(GO) run ./cmd/mcperf check -baseline BENCH_$*_overhead.json \
		-ledger $*-overhead-ledger.jsonl
