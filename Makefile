# MatchCatcher developer entry points. `make lint` mirrors the CI lint
# gates: go vet + mclint (the repo's own analyzer suite, tier-1) always
# run; staticcheck runs when installed locally (CI pins it, see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt-check mclint lint-hotalloc lint vuln fuzz-smoke perf-baseline perf-check parallel-bench serve-smoke serve-overhead-bench serve-overhead-baseline serve-overhead-check progress-overhead-bench progress-overhead-baseline progress-overhead-check shard-skew-bench

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
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzMergeTopK -fuzztime 10s
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzPrefixFilter -fuzztime 10s
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
		-desc "pinned perf-gate workload: M2 joins (HASH1/HASH2/SIM1, k=1000) + M2/HASH1 debug session + M2/HASH1 intra-join parallelism arm (probe workers 1 and 4) at scale $(PERF_SCALE), seed $(PERF_SEED)" \
		-out BENCH_perf_gate.json

perf-check:
	rm -f $(PERF_LEDGER)
	$(GO) run ./cmd/mcbench -exp perf-gate -scale $(PERF_SCALE) -seed $(PERF_SEED) \
		-count 4 -ledger $(PERF_LEDGER)
	$(GO) run ./cmd/mcperf check -baseline BENCH_perf_gate.json -ledger $(PERF_LEDGER)

# Flight-recorder overhead on the serve request envelope
# (BENCH_serve_overhead.json): the paired internal/serve benchmarks run
# the full HTTP envelope with the recorder on and off. -cpu 1 pins the
# benchmark names (no -N suffix) so ledger keys stay stable across
# hosts. scripts/serve_overhead_bench.sh runs the whole set
# SERVE_COUNT times so each invocation's On rep pairs with an Off rep
# taken seconds later under correlated load, and retries once after a
# cooldown if a load burst shifted the window; serve-overhead-check is
# the gate: the median paired on/off ratio must stay inside the 5%
# budget (scripts/serve_overhead.py — same-process ratios, so
# meaningful on any machine), and mcperf check blocks on absolute
# drift when the host matches the committed baseline's fingerprint.
SERVE_BENCH_OUT ?= serve-bench.out
SERVE_LEDGER    ?= serve-overhead-ledger.jsonl
SERVE_COUNT     ?= 6

serve-overhead-bench:
	bash scripts/serve_overhead_bench.sh $(SERVE_BENCH_OUT) $(SERVE_COUNT)
	rm -f $(SERVE_LEDGER)
	$(GO) run ./cmd/mcperf record -ledger $(SERVE_LEDGER) -from-bench \
		-exp serve-overhead -seed 1 < $(SERVE_BENCH_OUT)

serve-overhead-baseline: serve-overhead-bench
	$(GO) run ./cmd/mcperf report -ledger $(SERVE_LEDGER) -format json \
		-desc "serve request envelope with the flight recorder on vs off: full HTTP stack (mux, envelope, metrics, canonical log) via httptest on GET /healthz and GET /v1/sessions/<id>, -cpu 1, $(SERVE_COUNT) paired invocations; budget: recorder adds <5% on the median paired on/off ratio (gated by scripts/serve_overhead.py)" \
		-out BENCH_serve_overhead.json

serve-overhead-check: serve-overhead-bench
	$(GO) run ./cmd/mcperf check -baseline BENCH_serve_overhead.json \
		-ledger $(SERVE_LEDGER)

# Progress-tracker overhead on the join kernel
# (BENCH_progress_overhead.json): the paired internal/ssjoin benchmarks
# run the same JoinAll workload with and without a Progress tracker
# attached. Same methodology as the serve-overhead gate: the set runs
# PROGRESS_COUNT times so each On rep pairs with an Off rep taken
# seconds later under correlated load, the median paired on/off ratio
# must stay inside the 5% budget (scripts/serve_overhead.py, the
# generic On/Off pairing gate), and mcperf check blocks on absolute
# drift when the host matches the committed baseline's fingerprint.
PROGRESS_BENCH_OUT ?= progress-bench.out
PROGRESS_LEDGER    ?= progress-overhead-ledger.jsonl
PROGRESS_COUNT     ?= 6

progress-overhead-bench:
	bash scripts/progress_overhead_bench.sh $(PROGRESS_BENCH_OUT) $(PROGRESS_COUNT)
	rm -f $(PROGRESS_LEDGER)
	$(GO) run ./cmd/mcperf record -ledger $(PROGRESS_LEDGER) -from-bench \
		-exp progress-overhead -seed 1 < $(PROGRESS_BENCH_OUT)

progress-overhead-baseline: progress-overhead-bench
	$(GO) run ./cmd/mcperf report -ledger $(PROGRESS_LEDGER) -format json \
		-desc "JoinAll with a Progress tracker attached vs not: 900x900 synthetic corpus, city blocker, k=500, probe workers 2, -cpu 1, $(PROGRESS_COUNT) paired invocations; budget: the tracker adds <5% on the median paired on/off ratio (gated by scripts/serve_overhead.py via scripts/progress_overhead_bench.sh)" \
		-out BENCH_progress_overhead.json

progress-overhead-check: progress-overhead-bench
	$(GO) run ./cmd/mcperf check -baseline BENCH_progress_overhead.json \
		-ledger $(PROGRESS_LEDGER)

# Per-shard work distribution on the long-tail SKEW profile
# (cmd/mcbench -exp shard-skew): joins at 1/2/4/8 probe shards with the
# progress tracker attached, recording each shard's popped prefix
# events and the imbalance ratio to the ledger.
SKEW_LEDGER ?= shardskew-ledger.jsonl

shard-skew-bench:
	rm -f $(SKEW_LEDGER)
	$(GO) run ./cmd/mcbench -exp shard-skew -seed $(PERF_SEED) \
		-count 3 -ledger $(SKEW_LEDGER)

# Intra-join parallelism speedup curve (BENCH_parallel_join.json): the
# M2 join sweep at probe worker counts 1/2/4/8, each multi-worker run
# bit-compared against the 1-worker reference while it is timed. Run on
# quiet multi-core hardware to refresh the committed numbers; on a
# single-core host the curve measures sharding's total-work expansion,
# not wall-clock speedup (see the note in BENCH_parallel_join.json).
PARALLEL_LEDGER ?= parallel-ledger.jsonl

parallel-bench:
	rm -f $(PARALLEL_LEDGER)
	$(GO) run ./cmd/mcbench -exp parallel-join -scale $(PERF_SCALE) -seed $(PERF_SEED) \
		-count 3 -ledger $(PARALLEL_LEDGER)
