package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/config"
	"matchcatcher/internal/core"
	"matchcatcher/internal/datagen"
	"matchcatcher/internal/feature"
	"matchcatcher/internal/oracle"
	"matchcatcher/internal/ranker"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// The paper's defaults: k pairs per config list, n pairs shown per
// iteration.
const (
	topK   = 1000
	batchN = 20
	// pageSize and pages shape the candidate paging an HTTP session does
	// after its last iteration.
	pageSize = 50
	pages    = 4
)

// rule is one blocker, given as the rule strings a CLI or HTTP client
// sends (blocker.BuildFromRules builds both fronts' blockers from them).
type rule struct {
	label        string
	drops, keeps []string
}

// workload is one set of inputs and one load shape. All of them drive
// the pipeline a library user drives (Block, core.New, Next/Feedback until
// done, Finish) with the synthetic user labelling from gold. They differ
// on purpose in pair-space size, string length and concurrency, so that
// each one stresses a different layer and the others show what a change
// to that layer does elsewhere.
type workload struct {
	name    string
	why     string
	profile datagen.Profile // generated with its own seed; the run's seed shuffles rows
	scale   float64
	rules   []rule // sessions rotate through them
	// serve sends every session through serve.Server on a loopback TCP
	// socket instead of calling the library.
	serve   bool
	clients int // closed-loop clients, each with one session at a time
	// rounds, when set, is how many batches the synthetic user labels
	// before stopping (ranker.Options.MaxIterations); zero keeps the
	// paper's stopping rule.
	rounds int
	// sessions is the timed session count when no time box is given, so
	// two commits do identical work.
	sessions int
}

var m2HASH1 = rule{label: "HASH1", keeps: []string{"attr_equal_artist_name"}}

var workloads = []workload{
	{
		name:    "m2-dense",
		why:     "M2 x0.1 (25M pairs, under the 32Mi dense bound): the join dominates a session, the verifier is ~5% of it",
		profile: datagen.Music2(), scale: 0.1,
		rules: []rule{m2HASH1}, clients: 1, sessions: 40,
	},
	{
		name:    "m2-wide",
		why:     "M2 x0.12 (36M pairs, over the 32Mi dense bound): same data shape as m2-dense on the map-kernel side of the cliff",
		profile: datagen.Music2(), scale: 0.12,
		rules: []rule{m2HASH1}, clients: 1, sessions: 24,
	},
	{
		name:    "ag-verify",
		why:     "A-G x1, long titles and descriptions: 50 verifier rounds per session, each waiting on a forest fit and predict",
		profile: datagen.AmazonGoogle(), scale: 1,
		rules: []rule{{label: "HASH", keeps: []string{"attr_equal_manuf"}}},
		// The paper's stopping rule ends A-G sessions after 59 to 68
		// rounds depending on the seed, which alone moves session time by
		// 15% between seeds; a user who stops after 50 rounds does the
		// same verifier work on every seed.
		rounds:  50,
		clients: 1, sessions: 30,
	},
	{
		name:    "serve-fz",
		why:     "F-Z CSVs through mcserve on loopback, 2 concurrent tenants rotating the 4 Table-2 rules: CSV, HTTP/JSON and session locks",
		profile: datagen.FodorsZagats(), scale: 1,
		rules: []rule{
			{label: "OL", drops: []string{"name_overlap_word<2"}},
			{label: "HASH", keeps: []string{"attr_equal_city"}},
			{label: "SIM", drops: []string{"addr_jac_3gram<0.3"}},
			{label: "R", drops: []string{"(name_cos_word<0.5 AND type_jac_3gram<0.7) OR addr_jac_3gram<0.3"}},
		},
		serve: true, clients: 2, sessions: 240,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is a workload's set-up: the generated tables and gold, their CSV
// renderings, the blockers, one reference digest per rule and, for serve
// workloads, the running loopback server.
type env struct {
	w     workload
	seed  int64
	data  *datagen.Dataset
	csvA  []byte
	csvB  []byte
	rules []blocker.Blocker
	ref   []string
	srv   *loopback
	// joinWorkers is ssjoin.Options.Workers for in-process sessions; zero
	// keeps the library default (GOMAXPROCS).
	joinWorkers int

	generate time.Duration // datagen alone
	setup    time.Duration // everything newEnv does
}

// newEnv sets a workload up for one seed: it generates the data, makes
// the run's inputs from it, renders the CSVs, starts the server, and runs
// one untimed warm-up session per rule in-process, whose digests become
// the references every timed session must reproduce. Serve workloads then
// run one warm-up session over HTTP, checked against the same reference.
func newEnv(w workload, seed int64) (*env, error) {
	start := time.Now()
	gen, err := datagen.Generate(w.profile.Scaled(w.scale))
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, generate: time.Since(start)}
	if e.data, err = shuffleRows(gen, seed); err != nil {
		return nil, err
	}
	data := e.data
	var a, b bytes.Buffer
	if err := data.A.WriteCSV(&a); err != nil {
		return nil, fmt.Errorf("render %s: %w", data.A.Name(), err)
	}
	if err := data.B.WriteCSV(&b); err != nil {
		return nil, fmt.Errorf("render %s: %w", data.B.Name(), err)
	}
	e.csvA, e.csvB = a.Bytes(), b.Bytes()
	for _, r := range w.rules {
		q, err := blocker.BuildFromRules(r.drops, r.keeps, nil)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.label, err)
		}
		e.rules = append(e.rules, q)
	}
	for i := range w.rules {
		r := e.inProcess(i, nil, w.serve)
		if r.failed > 0 {
			return nil, fmt.Errorf("warm-up session for rule %s failed", w.rules[i].label)
		}
		e.ref = append(e.ref, r.digest)
	}
	if w.serve {
		if e.srv, err = startLoopback(w.clients); err != nil {
			return nil, err
		}
		if r := e.overHTTP(0, nil); r.failed > 0 || r.digest != e.ref[0] {
			e.close()
			return nil, fmt.Errorf("warm-up HTTP session disagrees with the in-process reference")
		}
	}
	e.setup = time.Since(start)
	return e, nil
}

// shuffleRows makes a run's inputs from its seed: both tables' rows in a
// seeded order, with gold remapped. The seed also seeds the verifier and
// the synthetic user. The program thus sees different row ids, tie
// orders and forests on every seed, but always the workload's one data
// shape. Regenerating the data per seed instead moved allocation per
// session by 5-13% between seeds, more than its bound can absorb.
func shuffleRows(d *datagen.Dataset, seed int64) (*datagen.Dataset, error) {
	rng := rand.New(rand.NewSource(seed))
	a, posA, err := shuffled(d.A, rng)
	if err != nil {
		return nil, err
	}
	b, posB, err := shuffled(d.B, rng)
	if err != nil {
		return nil, err
	}
	gold := blocker.NewPairSet()
	d.Gold.ForEach(func(x, y int) { gold.Add(posA[x], posB[y]) })
	return &datagen.Dataset{Profile: d.Profile, A: a, B: b, Gold: gold}, nil
}

// shuffled returns t's rows in a random order and each old row's new
// position.
func shuffled(t *table.Table, rng *rand.Rand) (*table.Table, []int, error) {
	out, err := table.New(t.Name(), t.Attrs())
	if err != nil {
		return nil, nil, err
	}
	pos := make([]int, t.NumRows())
	for row, old := range rng.Perm(t.NumRows()) {
		if err := out.Append(t.Row(old)); err != nil {
			return nil, nil, err
		}
		pos[old] = row
	}
	return out, pos, nil
}

func (e *env) close() {
	if e.srv != nil {
		e.srv.stop()
		e.srv = nil
	}
}

// ruleOf picks session i's rule: the rules in a seeded random order
// within each round of len(rules) sessions, so every rule runs equally
// often but concurrent tenants do not fall into a fixed pairing of rules,
// which would move the medians from run to run.
func (e *env) ruleOf(i int) int {
	n := len(e.rules)
	round := rand.New(rand.NewSource(e.seed*1_000_003 + int64(i/n))).Perm(n)
	return round[i%n]
}

// session runs session i of the workload on its front.
func (e *env) session(i int, tr *telemetry.Tracer) sessionResult {
	ri := e.ruleOf(i)
	if e.w.serve {
		return e.overHTTP(ri, tr)
	}
	return e.inProcess(ri, tr, false)
}

// sessionResult is what one session leaves behind.
type sessionResult struct {
	rule       int
	firstBatch time.Duration   // blocker handed over → first batch held
	iters      []time.Duration // labels handed over → next batch held
	wall       time.Duration
	newSelf    time.Duration // core.New minus the layer calls it makes (untraced)
	joinCPU    time.Duration // process CPU over JoinAll (in-process, traced)
	extractor  time.Duration // feature.NewExtractor (in-process, traced)
	allocBytes uint64        // heap allocation while the session ran, set by closedLoop
	ops        int           // library calls or HTTP requests
	failed     int
	non2xx     int
	digest     string

	configs, candidates, iterations, shown, matches int

	listPairs int // pairs across the top-k lists
	stats     ssjoin.Stats
	routes    []routeSample // HTTP sessions
	traceID   uint64        // root span id when traced
}

// pipeline is a built debugging session seen through the ranker.Session
// loop surface, which both *core.Debugger and *ranker.Verifier satisfy.
type pipeline struct {
	s          ranker.Session
	lists      []ssjoin.TopKList
	stats      ssjoin.Stats
	candidates int
	ranking    func() []blocker.Pair
	finish     func()
	coreSelf   func() time.Duration // nil unless built by core.New
}

// inProcess runs one session through the library. Untraced (tr == nil) it
// calls core.New, as a library user does. Traced, it makes the calls
// core.New makes, in the same order and with the same options, each
// inside a span of its own, so the session splits into layers without a
// single span added to the program. With asHTTP it also pages through
// the ranked candidates after the last round, as an HTTP session does,
// and its digest covers what the HTTP API shows instead of the top-k
// lists.
func (e *env) inProcess(ri int, tr *telemetry.Tracer, asHTTP bool) sessionResult {
	r := sessionResult{rule: ri}
	d := newDigest()
	user := oracle.New(e.data.Gold, 0, e.seed)
	a, b := e.data.A, e.data.B

	start := time.Now()
	root := tr.Start("session", telemetry.L("workload", e.w.name), telemetry.L("rule", e.w.rules[ri].label))
	sp := root.Child("blocker.block")
	c, err := e.rules[ri].Block(a, b)
	sp.End()
	r.ops++
	if err != nil {
		r.failed++
		root.End()
		return r
	}
	var p pipeline
	if tr == nil {
		p, err = e.viaCore(c)
	} else {
		p, err = e.viaLayers(c, root, &r)
	}
	r.ops++
	if err != nil {
		r.failed++
		root.End()
		return r
	}
	d.join(len(p.lists), p.candidates)
	if !asHTTP {
		d.lists(p.lists)
	}
	batch := p.s.Next()
	r.ops++
	r.firstBatch = time.Since(start)
	for len(batch) > 0 {
		labels := label(user, batch)
		d.batch(batch, labels)
		r.shown += len(batch)
		it := time.Now()
		err := p.s.Feedback(labels)
		r.ops++
		if err != nil {
			r.failed++
			break
		}
		batch = p.s.Next()
		r.ops++
		r.iters = append(r.iters, time.Since(it))
	}
	if asHTTP {
		sp := root.Child("ranker.ranking")
		ranked := p.ranking()
		sp.End()
		if len(ranked) > pages*pageSize {
			ranked = ranked[:pages*pageSize]
		}
		d.pages(ranked)
	}
	p.finish()
	matches := p.s.Matches()
	d.final(matches, p.s.Iterations())
	r.wall = time.Since(start)
	root.End()

	r.traceID = root.TraceID()
	r.digest = d.sum()
	if p.coreSelf != nil {
		r.newSelf = p.coreSelf()
	}
	r.configs, r.candidates = len(p.lists), p.candidates
	r.iterations, r.matches = p.s.Iterations(), len(matches)
	r.stats = p.stats
	for _, l := range p.lists {
		r.listPairs += len(l.Pairs)
	}
	return r
}

func (e *env) joinOptions() ssjoin.Options {
	return ssjoin.Options{K: topK, Workers: e.joinWorkers}
}

func (e *env) verifierOptions() ranker.Options {
	return ranker.Options{N: batchN, Seed: e.seed, MaxIterations: e.w.rounds}
}

// viaCore builds the session with core.New. It hands core.New the tracer
// core.New would build for itself (bridged to the default registry), so
// the cost is unchanged and the stage spans core.New records can be read
// back afterwards for its own time.
func (e *env) viaCore(c *blocker.PairSet) (pipeline, error) {
	tr := telemetry.NewTracer(telemetry.Default())
	start := time.Now()
	dbg, err := core.New(e.data.A, e.data.B, c, core.Options{
		Join:     e.joinOptions(),
		Verifier: e.verifierOptions(),
		Trace:    tr,
	})
	wall := time.Since(start)
	if err != nil {
		return pipeline{}, err
	}
	return pipeline{
		s: dbg, lists: dbg.Lists(), stats: dbg.JoinStats(), candidates: dbg.CandidateCount(),
		ranking: dbg.Ranking, finish: dbg.Finish,
		coreSelf: func() time.Duration { return coreSelf(tr, dbg.Session().ID(), wall) },
	}, nil
}

// coreStages are the spans core.New opens around its layer calls.
var coreStages = map[string]bool{"config.generate": true, "ssjoin.corpus": true, "ssjoin.joinall": true, "verifier.prepare": true}

// coreSelf is core.New's own time: its wall time minus the stage spans it
// opened directly under the session root.
func coreSelf(tr *telemetry.Tracer, root uint64, wall time.Duration) time.Duration {
	for _, s := range tr.Export() {
		if s.ParentID == root && coreStages[s.Name] {
			wall -= time.Duration(s.DurMicros) * time.Microsecond
		}
	}
	return wall
}

// viaLayers is core.New unrolled: the same calls, order and options, each
// in its own span. ssjoin and ranker hang their existing sub-spans
// (ssjoin.config/tokenize/index/probe/topk, verifier.fit/predict) under
// the spans passed through their public Trace options.
func (e *env) viaLayers(c *blocker.PairSet, root *telemetry.TraceSpan, r *sessionResult) (pipeline, error) {
	a, b := e.data.A, e.data.B
	sp := root.Child("config.generate")
	res, err := config.Generate(a, b, config.Options{})
	sp.End()
	if err != nil {
		return pipeline{}, err
	}
	sp = root.Child("ssjoin.corpus")
	cor := ssjoin.NewCorpus(a, b, res)
	sp.End()

	sp = root.Child("ssjoin.joinall")
	jopt := e.joinOptions()
	jopt.Ctx = context.Background() // core.New always passes one
	jopt.Trace = sp
	cpu := processCPU()
	join := ssjoin.JoinAll(cor, c, jopt)
	r.joinCPU = processCPU() - cpu
	sp.End()

	sp = root.Child("feature.extractor")
	ext := feature.NewExtractor(cor)
	r.extractor = sp.End() // too short for the spans' microseconds
	sp = root.Child("ranker.prepare")
	vopt := e.verifierOptions()
	vopt.Trace = sp
	v := ranker.NewVerifier(join.Lists, ext.Vector, vopt)
	sp.End()
	return pipeline{
		s: &tracedVerifier{Verifier: v, root: root}, lists: join.Lists, stats: join.Stats,
		candidates: v.NumCandidates(), ranking: v.Ranking, finish: func() {},
	}, nil
}

// tracedVerifier wraps each Next and Feedback in a span under the session
// root and points the verifier's fit/predict spans at the Next span, as
// core.Debugger does with its iteration spans.
type tracedVerifier struct {
	*ranker.Verifier
	root *telemetry.TraceSpan
}

func (t *tracedVerifier) Next() []blocker.Pair {
	sp := t.root.Child("ranker.next")
	t.SetTraceParent(sp)
	out := t.Verifier.Next()
	sp.End()
	return out
}

func (t *tracedVerifier) Feedback(labels []bool) error {
	sp := t.root.Child("ranker.feedback")
	err := t.Verifier.Feedback(labels)
	sp.End()
	return err
}

func label(u *oracle.User, batch []blocker.Pair) []bool {
	out := make([]bool, len(batch))
	for i, p := range batch {
		out[i] = u.Label(p.A, p.B)
	}
	return out
}
