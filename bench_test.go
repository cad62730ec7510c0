package matchcatcher

// One benchmark per table and figure of the paper's evaluation (Section
// 6), plus micro-benchmarks for the core algorithmic contributions. The
// benchmarks run the same code paths as cmd/mcbench but at reduced scale
// so `go test -bench=.` completes in minutes; mcbench regenerates the
// full-size reports.

import (
	"sync"
	"testing"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/experiments"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/rforest"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/telemetry"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

// env returns a shared quarter-ish-scale experiment environment so
// datasets and blocker outputs are generated once across benchmarks.
func env() *experiments.Env {
	benchEnvOnce.Do(func() { benchEnv = experiments.NewEnv(0.15) })
	return benchEnv
}

func benchOpts() experiments.DebugOptions {
	return experiments.DebugOptions{K: 300, Seed: 1}
}

// BenchmarkTable1Datasets regenerates Table 1's dataset statistics.
func BenchmarkTable1Datasets(b *testing.B) {
	e := env()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunTable1([]string{"A-G", "A-D", "F-Z"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Row runs one full Table 3 row (block, joint top-k,
// verifier to natural stop) on the F-Z HASH blocker.
func BenchmarkTable3Row(b *testing.B) {
	e := env()
	spec := experiments.SpecsFor("F-Z")[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunTable3Row(spec, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4FirstIterations runs the Table 4 protocol: the first
// three verifier iterations plus problem summarization.
func BenchmarkTable4FirstIterations(b *testing.B) {
	e := env()
	spec := experiments.Table4Specs()[3] // F-Z R
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunTable4Row(spec, 3, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashBlockerDebugging runs the §6.2 repair loop on the best
// F-Z hash blocker.
func BenchmarkHashBlockerDebugging(b *testing.B) {
	e := env()
	var spec experiments.Spec
	for _, s := range experiments.BestHashBlockers() {
		if s.Dataset == "F-Z" {
			spec = s
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunHashDebug(spec, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLearnedBlockerDebugging runs the §6.2 learned-blocker study:
// learn a blocker on a sample of Papers, then debug it for 5 iterations.
func BenchmarkLearnedBlockerDebugging(b *testing.B) {
	e := experiments.NewEnv(0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunLearned(1, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Scaling runs a reduced Figure 9 sweep: the M2 HASH1
// blocker's top-k runtime at two dataset fractions and two k values.
func BenchmarkFig9Scaling(b *testing.B) {
	e := experiments.NewEnv(0.04)
	specs := experiments.SpecsFor("M2")[:1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunFig9("M2", specs, []int{100, 1000}, []int{40, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMultiConfig measures multi-config vs single-config
// match retrieval (§6.5).
func BenchmarkAblationMultiConfig(b *testing.B) {
	e := env()
	specs := experiments.SpecsFor("F-Z")[1:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunMultiConfigAblation(specs, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLongAttr measures long-attribute handling on the
// long-description A-G profile (§6.5).
func BenchmarkAblationLongAttr(b *testing.B) {
	e := env()
	specs := experiments.SpecsFor("A-G")[1:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunLongAttrAblation(specs, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationJointTopK measures joint vs individual config
// execution (§6.5).
func BenchmarkAblationJointTopK(b *testing.B) {
	e := env()
	specs := experiments.SpecsFor("A-G")[1:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunJointAblation(specs, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVerifier compares the learning verifier against WMR
// (§6.5).
func BenchmarkAblationVerifier(b *testing.B) {
	e := env()
	specs := experiments.SpecsFor("F-Z")[1:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunVerifierAblation(specs, 5, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivityK sweeps k (§6.5 sensitivity analysis).
func BenchmarkSensitivityK(b *testing.B) {
	e := env()
	spec := experiments.SpecsFor("F-Z")[1]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RunSensitivityK(spec, []int{100, 300}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks for the core algorithms ---

func benchCorpus(b *testing.B, prof datagen.Profile, blockAttr string) (*ssjoin.Corpus, *config.Result, *blocker.PairSet) {
	b.Helper()
	d := datagen.MustGenerate(prof)
	res, err := config.Generate(d.A, d.B, config.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := blocker.NewAttrEquivalence(blockAttr)
	c, err := q.Block(d.A, d.B)
	if err != nil {
		b.Fatal(err)
	}
	return ssjoin.NewCorpus(d.A, d.B, res), res, c
}

// BenchmarkJoinOne measures one config's top-k join (the row-local
// kernel) on the long-string A-G root config.
func BenchmarkJoinOne(b *testing.B) {
	cor, res, c := benchCorpus(b, datagen.AmazonGoogle().Scaled(0.5), "manuf")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssjoin.JoinOne(cor, res.Root.Mask, c, ssjoin.Options{K: 1000})
	}
}

// BenchmarkJointAllConfigs measures the full joint executor over the
// config tree.
func BenchmarkJointAllConfigs(b *testing.B) {
	cor, _, c := benchCorpus(b, datagen.Music1().Scaled(0.1), "artist_name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssjoin.JoinAll(cor, c, ssjoin.Options{K: 500})
	}
}

// BenchmarkJoinAllWarm measures the joint executor's steady state on the
// M2 ×0.1 HASH1 workload at one worker: one untimed JoinAll warms the
// probe pool first, so B/op is what each further session join allocates
// (the lists it returns plus per-call bookkeeping).
func BenchmarkJoinAllWarm(b *testing.B) {
	cor, _, c := benchCorpus(b, datagen.Music2().Scaled(0.1), "artist_name")
	opt := ssjoin.Options{K: 1000, Workers: 1}
	ssjoin.JoinAll(cor, c, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ssjoin.JoinAll(cor, c, opt)
	}
}

// BenchmarkBlockerRule measures index-driven rule-blocker execution.
func BenchmarkBlockerRule(b *testing.B) {
	d := datagen.MustGenerate(datagen.AmazonGoogle().Scaled(0.5))
	q := blocker.MustParseDropRule("sim", "title_cos_word<0.4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Block(d.A, d.B); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMedRank measures rank aggregation over realistic top-k lists.
func BenchmarkMedRank(b *testing.B) {
	cor, _, c := benchCorpus(b, datagen.Music1().Scaled(0.1), "artist_name")
	jr := ssjoin.JoinAll(cor, c, ssjoin.Options{K: 500})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranker.MedRank(jr.Lists, 1)
	}
}

// The JoinOneM2 pairs bound observability overhead on the Figure-9 M2
// workload (Music2 profile, the HASH1 artist_name blocker, root config).
// TelemetryOn/Off runs JoinOne with a live registry vs.
// telemetry.Disabled(): the hot path keeps plain per-goroutine counters
// and flushes them to shared instruments once per config join.
// TraceOn/Off adds a root span per iteration on top of the live
// registry, under which JoinOne hangs its config / tokenize / index /
// probe / topk spans; span starts are per-config, not per-candidate.
// Each On arm must stay within 5% of its Off arm (make overhead-check,
// which gates every On/Off pair in the module; baseline
// BENCH_overhead.json).
func BenchmarkJoinOneM2TelemetryOn(b *testing.B)  { benchJoinOneM2(b, telemetry.New(), false) }
func BenchmarkJoinOneM2TelemetryOff(b *testing.B) { benchJoinOneM2(b, telemetry.Disabled(), false) }
func BenchmarkJoinOneM2TraceOn(b *testing.B)      { benchJoinOneM2(b, telemetry.New(), true) }
func BenchmarkJoinOneM2TraceOff(b *testing.B)     { benchJoinOneM2(b, telemetry.New(), false) }

func benchJoinOneM2(b *testing.B, reg *telemetry.Registry, trace bool) {
	cor, res, c := benchCorpus(b, datagen.Music2().Scaled(0.1), "artist_name")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := ssjoin.Options{K: 1000, Metrics: reg}
		if trace {
			opt.Trace = telemetry.NewTracer(reg).Start("debug.session")
		}
		ssjoin.JoinOne(cor, res.Root.Mask, c, opt)
		opt.Trace.End()
	}
}

// BenchmarkRandomForestTrain measures one verifier retraining step.
func BenchmarkRandomForestTrain(b *testing.B) {
	var exs []rforest.Example
	for i := 0; i < 400; i++ {
		x := []float64{float64(i%7) / 7, float64(i%13) / 13, float64(i%3) / 3}
		exs = append(exs, rforest.Example{X: x, Y: i%7 < 3})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rforest.Train(exs, rforest.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifierFeedback measures one verifier iteration (rank, label,
// retrain, rerank) — §6.4 reports 0.14-0.18s per feedback round.
func BenchmarkVerifierFeedback(b *testing.B) {
	cor, _, c := benchCorpus(b, datagen.Music1().Scaled(0.1), "artist_name")
	jr := ssjoin.JoinAll(cor, c, ssjoin.Options{K: 500})
	ext := feature.NewExtractor(cor)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := ranker.NewVerifier(jr.Lists, ext.Vector, ranker.Options{Seed: int64(i)})
		for iter := 0; iter < 3 && !v.Done(); iter++ {
			pairs := v.Next()
			if len(pairs) == 0 {
				break
			}
			labels := make([]bool, len(pairs))
			for j := range labels {
				labels[j] = j%5 == 0
			}
			if err := v.Feedback(labels); err != nil {
				b.Fatal(err)
			}
		}
	}
}
