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

# fuzz-smoke runs a 10s fuzz pass per target; CI's fuzz-smoke job runs
# this target, so a new target is listed here only.
fuzz-smoke:
# The blocker's rule parser and the Soundex normalizer chew raw user
# input (Magellan-style rule strings, arbitrary attribute values), so
# a 10s smoke per target catches panics cheaply without a long
# fuzzing job.
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzSoundex -fuzztime 10s
# Differential fuzz over the rule executor: a rule from the zoo with
# fuzzed thresholds, as a drop or keep rule, on two fuzzed tables
# (accents, punctuation, padded numbers, empty values) must keep
# exactly the brute-force keep set, serially and through Concurrent
# (DESIGN.md "Rule-blocker execution").
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzRuleBlock -fuzztime 10s
# Differential fuzz over the sealed candidate set: interleaved Adds,
# Unions (self-unions included) and reads that re-seal it must agree
# with a map reference and iterate in ascending (A, B) order, with
# negative B ids, and A ids up to 2^31-1 that must not get a giant
# row index (DESIGN.md "Session preparation").
	$(GO) test ./internal/blocker -run '^$$' -fuzz FuzzPairSet -fuzztime 10s
# The one-pass value normalizer against strings.Join(strings.Fields(
# strings.ToLower(s)), " "): invalid UTF-8, Unicode spaces and case
# folds that change byte length.
	$(GO) test ./internal/tokenize -run '^$$' -fuzz FuzzNormalize -fuzztime 10s
# Differential fuzz over the verifier's forest kernel: the presorted
# kernel (one sort per feature per fit, weighted sweeps over stably
# partitioned lists) on the flat node slab must grow exactly the
# trees of the rescanning reference trainer (ties, NaN, ±Inf values)
# and give bit-equal confidences (DESIGN.md "Verifier forest kernel").
	$(GO) test ./internal/rforest -run '^$$' -fuzz FuzzTrain -fuzztime 10s
# Differential fuzz over MedRank's flat aggregation: the sorted entry
# array must give the order, and leave the rng in the state, of the
# map-based reference for any lists and weights — ties, missing and
# repeated pairs, negative and zero weights included (DESIGN.md
# inventory row 9).
	$(GO) test ./internal/ranker -run '^$$' -fuzz FuzzAggregate -fuzztime 10s
# Differential fuzz over top-k list merging: per-part bounded top-k
# lists offered into one heap must be bit-identical to serial
# insertion for any pair multiset — exact float ties and duplicate
# pairs included. Order-free retention is what keeps the seed-or-miss
# list-reuse handoff (a child seeded from its finished parent, or run
# cold) and Workers out of the output (DESIGN.md "Determinism").
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzMergeTopK -fuzztime 10s
# Differential fuzz over the row-local kernel's strict pair filters
# and row-end bound: arbitrary corpora under any of the four
# measures, unseeded and seeded, through the kernel vs. filter-free
# BruteForce must agree bit for bit (DESIGN.md "Row-local join
# kernel").
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzPrefixFilter -fuzztime 10s
# Differential fuzz over session preparation: the one-pass slab
# corpus build must give every token the rank, mask and lengths of
# the reference build on fuzzed tables (case folds that change byte
# length, invalid UTF-8, missing and repeated words) (DESIGN.md
# "Session preparation").
	$(GO) test ./internal/ssjoin -run '^$$' -fuzz FuzzNewCorpus -fuzztime 10s
# CSV round trip: ReadCSV must never panic on arbitrary bytes, and any
# table it accepts must come back identical (attrs and rows) through
# WriteCSV and ReadCSV — one-column rows with an empty value included.
	$(GO) test ./internal/table -run '^$$' -fuzz FuzzTableCSV -fuzztime 10s
# The column-statistics helpers against the standard library: the
# allocation-free field counter must equal len(strings.Fields) and the
# ParseFloat prefilter must never reject a parsable value.
	$(GO) test ./internal/config -run '^$$' -fuzz FuzzColumnHelpers -fuzztime 10s

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
