# MatchCatcher developer entry points. `make lint` mirrors the CI lint
# gates: go vet + mclint (the repo's own analyzer suite, tier-1) always
# run; staticcheck runs when installed locally (CI pins it, see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt-check mclint lint-hotalloc lint vuln fuzz-smoke serve-smoke overhead-bench overhead-check overhead-baseline

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

# fuzz-smoke runs a 10s fuzz pass over every Fuzz target in the module,
# stopping at the first failure; CI's fuzz-smoke job runs this target.
# The targets are listed by `go test -list`, so adding or deleting one
# needs no edit here; each target's doc comment says what it checks.
fuzz-smoke:
	@set -e; pkgs=$$($(GO) list ./...); \
	for pkg in $$pkgs; do \
		names=$$($(GO) test "$$pkg" -list '^Fuzz'); \
		for name in $$(echo "$$names" | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$pkg $$name"; \
			$(GO) test "$$pkg" -run '^$$' -fuzz "^$$name$$" -fuzztime 10s; \
		done; \
	done

# One on/off overhead gate for every paired …On/…Off benchmark in the
# module (DESIGN.md "Performance Regression Observability"):
#
#   make overhead-bench     run the pairs and enforce the 5% budget
#   make overhead-check     ...then mcperf check against BENCH_overhead.json
#   make overhead-baseline  ...then regenerate BENCH_overhead.json
#
# scripts/overhead_bench.sh runs all pairs in one `go test ./...` per
# invocation, OVERHEAD_COUNT times, so each invocation's On rep pairs
# with an Off rep taken seconds later under correlated load, and retries
# once after a cooldown if a load burst shifted the window. The median
# paired on/off ratio must stay inside the 5% budget (mcperf overhead —
# same-process ratios, so meaningful on any machine). mcperf check
# blocks on absolute drift only when the host matches the committed
# baseline's fingerprint. CI's overhead job runs the same steps. Never
# edit BENCH_overhead.json by hand.
OVERHEAD_COUNT ?= 6

overhead-bench:
	bash scripts/overhead_bench.sh overhead-bench.out $(OVERHEAD_COUNT)
	rm -f overhead-ledger.jsonl
	$(GO) run ./cmd/mcperf record -ledger overhead-ledger.jsonl -from-bench \
		-exp overhead -seed 1 < overhead-bench.out

overhead-baseline: overhead-bench
	$(GO) run ./cmd/mcperf report -ledger overhead-ledger.jsonl -format json \
		-desc "every …On/…Off benchmark pair in the module, -cpu 1, $(OVERHEAD_COUNT) paired invocations; budget: each On arm adds <5% on the median paired on/off ratio (gated by mcperf overhead via scripts/overhead_bench.sh)" \
		-out BENCH_overhead.json

overhead-check: overhead-bench
	$(GO) run ./cmd/mcperf check -baseline BENCH_overhead.json \
		-ledger overhead-ledger.jsonl
