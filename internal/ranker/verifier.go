package ranker

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"matchcatcher/internal/blocker"
	"matchcatcher/internal/floats"
	"matchcatcher/internal/rforest"
	"matchcatcher/internal/ssjoin"
	"matchcatcher/internal/telemetry"
)

// Mode selects the verifier's ranking strategy.
type Mode int

// The verifier modes.
const (
	// ModeLearning is the paper's hybrid strategy: MedRank bootstrap,
	// then three hybrid active-learning iterations (n/4 controversial +
	// 3n/4 high-confidence pairs), then pure online learning.
	ModeLearning Mode = iota
	// ModeWMR is the weighted-median-ranking baseline the paper compares
	// against in §6.5.
	ModeWMR
)

// Options tunes the verifier. Zero values select the paper's settings.
type Options struct {
	N int // pairs shown per iteration (default 20)
	// ALIterations is the number of hybrid active-learning iterations
	// (default 3; negative disables the hybrid phase entirely, for the
	// §6.5 sensitivity sweep).
	ALIterations   int
	StopAfterEmpty int // stop after this many consecutive matchless iterations (default 2)
	MaxIterations  int // safety cap; 0 = none
	Mode           Mode
	Seed           int64
	Forest         rforest.Options
	// Metrics receives the verifier's telemetry (iteration counters,
	// forest fit/predict latency, hybrid split sizes). Nil selects
	// telemetry.Default(); telemetry.Disabled() switches it off.
	Metrics *telemetry.Registry
	// Trace is the parent span forest-fit/predict spans hang under. The
	// core debugger re-parents it every iteration (SetTraceParent) so the
	// spans nest inside the iteration span. Nil disables tracing.
	Trace *telemetry.TraceSpan
	// Provenance records each watched pair's verifier lineage: candidate
	// pool entry and aggregate rank, when it was shown, and its label.
	Provenance *telemetry.Provenance
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 20
	}
	switch {
	case o.ALIterations == 0:
		o.ALIterations = 3
	case o.ALIterations < 0:
		o.ALIterations = 0
	}
	if o.StopAfterEmpty == 0 {
		o.StopAfterEmpty = 2
	}
	if o.Forest.Trees <= 0 {
		o.Forest.Trees = 10
	}
	return o
}

// FeatureFunc computes a pair's feature vector (feature.Extractor.Vector).
type FeatureFunc func(a, b int32) []float64

// Verifier drives the interactive loop over E, the union of the top-k
// lists. Call Next for the pairs to show, label them, pass the labels to
// Feedback, and repeat until Done.
type Verifier struct {
	opt   Options
	lists []ssjoin.TopKList
	feats FeatureFunc

	ids      []int64 // E's pair ids in item order: first seen in the lists
	index    []int32 // every item once, sorted by its id
	runs     runs    // the lists' runs, which WMR re-aggregates every round
	vecs     [][]float64
	state    []itemState // per item index
	nLabeled int
	matches  []blocker.Pair

	iter        int
	emptyStreak int
	alRounds    int
	haveMatch   bool
	haveNon     bool

	// order is the bootstrap/WMR global order of the unlabelled items,
	// rebuilt once per Feedback: Next takes its head, RankingPage slices
	// it.
	order   []int32
	weights []float64 // WMR per-list weights
	rng     *rand.Rand

	// Round buffers, reused so a warm round allocates only Next's batch.
	pending []int             // item indices returned by the last Next
	train   []rforest.Example // the labelled set, in item order
	ranked  []scored          // unlabelled items under forest, byConfidence
	contro  []scored          // a hybrid round's controversial picks
	forest  rforest.Forest    // refitted in place each round
	stale   bool              // labels changed since forest and ranked were made

	vm    verifierMetrics
	trace *telemetry.TraceSpan
	prov  *telemetry.Provenance
}

// itemState is a candidate's label state.
type itemState uint8

const (
	unlabeled itemState = iota
	labeledNo
	labeledYes
	taken // unlabelled, already picked as controversial by this Next
)

// scored is an unlabelled item with its forest confidence.
type scored struct {
	idx  int
	conf float64
}

// byConfidence orders by confidence, highest first, then by item index.
func byConfidence(x, y scored) int {
	if !floats.Equal(x.conf, y.conf) {
		if x.conf > y.conf {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.idx, y.idx)
}

// byControversy orders by distance of the confidence from 0.5, nearest
// first, then by item index.
func byControversy(x, y scored) int {
	dx, dy := math.Abs(x.conf-0.5), math.Abs(y.conf-0.5)
	if !floats.Equal(dx, dy) {
		if dx < dy {
			return -1
		}
		return 1
	}
	return cmp.Compare(x.idx, y.idx)
}

// verifierMetrics holds the resolved telemetry instruments (one registry
// lookup at construction; hot calls are plain atomic updates).
type verifierMetrics struct {
	iterations     *telemetry.Counter
	alIterations   *telemetry.Counter
	matches        *telemetry.Counter
	labelsGiven    *telemetry.Counter
	controversial  *telemetry.Counter
	confident      *telemetry.Counter
	fitSeconds     *telemetry.Histogram
	predictSeconds *telemetry.Histogram
	labeledGauge   *telemetry.Gauge
	candidates     *telemetry.Gauge
}

func newVerifierMetrics(reg *telemetry.Registry) verifierMetrics {
	reg = telemetry.Or(reg)
	return verifierMetrics{
		iterations:     reg.Counter("mc_ranker_iterations_total"),
		alIterations:   reg.Counter("mc_ranker_al_iterations_total"),
		matches:        reg.Counter("mc_ranker_matches_total"),
		labelsGiven:    reg.Counter("mc_ranker_labels_total"),
		controversial:  reg.Counter("mc_ranker_controversial_pairs_total"),
		confident:      reg.Counter("mc_ranker_confident_pairs_total"),
		fitSeconds:     reg.Histogram("mc_ranker_forest_fit_seconds"),
		predictSeconds: reg.Histogram("mc_ranker_forest_predict_seconds"),
		labeledGauge:   reg.Gauge("mc_ranker_labeled_pairs"),
		candidates:     reg.Gauge("mc_ranker_candidates"),
	}
}

// NewVerifier builds a verifier over the per-config top-k lists.
func NewVerifier(lists []ssjoin.TopKList, feats FeatureFunc, opt Options) *Verifier {
	opt = opt.withDefaults()
	v := &Verifier{
		opt:   opt,
		lists: lists,
		feats: feats,
		rng:   rand.New(rand.NewSource(opt.Seed)),
		stale: true,
		vm:    newVerifierMetrics(opt.Metrics),
		trace: opt.Trace,
		prov:  opt.Provenance,
	}
	v.ids, v.index, v.runs = buildPool(lists)
	v.vecs = make([][]float64, len(v.ids))
	v.state = make([]itemState, len(v.ids))
	v.weights = make([]float64, len(lists))
	for i := range v.weights {
		v.weights[i] = 1
	}
	v.aggregate()
	if opt.Mode != ModeWMR {
		v.runs = runs{} // only WMR aggregates again
	}
	v.vm.candidates.Set(float64(len(v.ids)))
	if v.prov.Active() {
		for _, w := range v.prov.WatchedPairs() {
			item := v.item(blocker.Pair{A: w[0], B: w[1]})
			if item < 0 {
				v.prov.Record(w[0], w[1], "verifier", "not_in_pool",
					telemetry.L("e_size", strconv.Itoa(len(v.ids))))
				continue
			}
			v.prov.Record(w[0], w[1], "verifier", "in_pool",
				telemetry.L("aggregate_rank", strconv.Itoa(slices.Index(v.order, int32(item))+1)),
				telemetry.L("e_size", strconv.Itoa(len(v.ids))))
		}
	}
	return v
}

// aggregate sets order to the lists' weighted-median-rank order under
// the current weights, as item indices.
func (v *Verifier) aggregate() {
	v.order = v.runs.order(v.lists, v.weights, v.index, v.rng)
}

// bootstrapping reports whether Next and Ranking read order rather than
// the forest: in WMR mode always, otherwise until the labels hold both
// classes.
func (v *Verifier) bootstrapping() bool {
	return v.opt.Mode == ModeWMR || !v.haveMatch || !v.haveNon
}

// item returns p's item index, or -1 when p is not in E.
func (v *Verifier) item(p blocker.Pair) int {
	id := pairID(int32(p.A), int32(p.B))
	j, ok := slices.BinarySearchFunc(v.index, id, func(i int32, id int64) int { return cmp.Compare(v.ids[i], id) })
	if !ok {
		return -1
	}
	return int(v.index[j])
}

// SetTraceParent re-parents the verifier's fit/predict trace spans —
// the core debugger points it at each iteration's span so the forest
// spans nest under the iteration they belong to.
func (v *Verifier) SetTraceParent(s *telemetry.TraceSpan) { v.trace = s }

// NumCandidates returns |E|, the number of distinct candidate pairs.
func (v *Verifier) NumCandidates() int { return len(v.ids) }

// Ranking returns the current ranked view of the unlabeled candidate
// pool. Before the learner has seen both classes (and always in WMR
// mode) it is the aggregated bootstrap order; afterwards pairs are
// ordered by the forest's positive confidence, ties broken by pool
// index — the same order Next's confident phase consumes. Its only
// side effect is lazily training and scoring the seed-deterministic
// forest that the next Next would use anyway, so a caller may page
// through the ranking between iterations without perturbing the
// session's trajectory (the same-seed report stays byte-identical
// whether or not Ranking was ever called). The slice is the caller's
// to keep.
func (v *Verifier) Ranking() []blocker.Pair {
	page, _ := v.RankingPage(0, len(v.ids))
	return page
}

// RankingPage returns the pairs of Ranking from offset on, at most
// limit of them, in a fresh slice, and the length of the whole ranking.
// An offset past the end gives an empty page. The forest's ranking is
// scored and sorted once per Feedback, so paging costs only the page.
func (v *Verifier) RankingPage(offset, limit int) ([]blocker.Pair, int) {
	total := len(v.ids) - v.nLabeled
	offset = min(max(offset, 0), total)
	end := offset + min(max(limit, 0), total-offset)
	out := make([]blocker.Pair, 0, end-offset)
	if v.bootstrapping() {
		for _, i := range v.order[offset:end] {
			out = append(out, idPair(v.ids[i]))
		}
		return out, total
	}
	for _, s := range v.rank()[offset:end] {
		out = append(out, idPair(v.ids[s.idx]))
	}
	return out, total
}

// Iterations returns the number of completed Feedback rounds.
func (v *Verifier) Iterations() int { return v.iter }

// Matches returns the confirmed matches so far (in confirmation order).
func (v *Verifier) Matches() []blocker.Pair { return v.matches }

// Done reports the paper's stopping condition: no new matches in
// StopAfterEmpty consecutive iterations, every candidate labeled, or the
// iteration cap reached.
func (v *Verifier) Done() bool {
	if v.nLabeled >= len(v.ids) {
		return true
	}
	if v.iter > 0 && v.emptyStreak >= v.opt.StopAfterEmpty {
		return true
	}
	if v.opt.MaxIterations > 0 && v.iter >= v.opt.MaxIterations {
		return true
	}
	return false
}

func (v *Verifier) vec(i int) []float64 {
	if v.vecs[i] == nil {
		id := v.ids[i]
		v.vecs[i] = v.feats(int32(id>>32), int32(uint32(id)))
	}
	return v.vecs[i]
}

// Next returns up to N unlabeled pairs to show the user. It returns nil
// when the verifier is done. Every Next must be followed by Feedback;
// a repeated Next before it returns the same batch.
func (v *Verifier) Next() []blocker.Pair {
	if v.Done() {
		return nil
	}
	v.pending = v.pending[:0]
	switch {
	case v.bootstrapping():
		for _, i := range v.order[:min(v.opt.N, len(v.order))] {
			v.pending = append(v.pending, int(i))
		}
	case v.alRounds < v.opt.ALIterations:
		v.nextHybrid()
	default:
		v.nextConfident(v.opt.N)
	}
	out := make([]blocker.Pair, len(v.pending))
	for i, idx := range v.pending {
		out[i] = idPair(v.ids[idx])
		if v.prov.Watching(out[i].A, out[i].B) {
			v.prov.Record(out[i].A, out[i].B, "verifier", "shown",
				telemetry.L("iteration", strconv.Itoa(v.iter+1)),
				telemetry.L("position", strconv.Itoa(i+1)))
		}
	}
	return out
}

// nextHybrid picks n/4 controversial pairs (confidence nearest 0.5) and
// fills the rest with the highest-confidence pairs (Section 5's hybrid
// that serves both the learner and the user's hunt for matches).
func (v *Verifier) nextHybrid() {
	// The n/4 items first in byControversy order, kept sorted by
	// insertion in one pass over the ranking: no pool-sized copy.
	best := v.contro[:0]
	if nContro := v.opt.N / 4; nContro > 0 {
		for _, s := range v.rank() {
			if len(best) == nContro {
				if byControversy(s, best[nContro-1]) >= 0 {
					continue
				}
				best = best[:nContro-1]
			}
			best = append(best, s)
			for k := len(best) - 1; k > 0 && byControversy(best[k], best[k-1]) < 0; k-- {
				best[k], best[k-1] = best[k-1], best[k]
			}
		}
	}
	v.contro = best
	for _, s := range best {
		v.pending = append(v.pending, s.idx)
		v.state[s.idx] = taken
	}
	contro := len(v.pending)
	v.vm.controversial.Add(int64(contro))
	v.nextConfident(v.opt.N - contro)
	for _, idx := range v.pending[:contro] {
		v.state[idx] = unlabeled
	}
}

// nextConfident appends to pending the n unlabeled pairs with the
// highest positive prediction confidence, skipping any already taken.
// Skipping in the ranking of the whole pool gives the order of the
// untaken pairs alone, since byConfidence is a total order.
func (v *Verifier) nextConfident(n int) {
	picked := 0
	for _, s := range v.rank() {
		if picked >= n {
			break
		}
		if v.state[s.idx] != unlabeled {
			continue
		}
		v.pending = append(v.pending, s.idx)
		picked++
	}
	v.vm.confident.Add(int64(picked))
}

// rank returns the unlabelled pool under the current forest, highest
// confidence first. After a Feedback it refits the forest, scores the
// pool under one verifier.predict span and sorts it; until the next
// Feedback, Next and every Ranking page read that result.
func (v *Verifier) rank() []scored {
	if !v.stale {
		return v.ranked
	}
	v.fit()
	predStart := time.Now()
	psp := v.trace.Child("verifier.predict")
	if v.ranked == nil {
		v.ranked = make([]scored, 0, len(v.state))
	}
	ranked := v.ranked[:0]
	for i, st := range v.state {
		if st == unlabeled {
			ranked = append(ranked, scored{i, v.forest.Confidence(v.vec(i))})
		}
	}
	psp.SetAttrInt("pairs", int64(len(ranked)))
	psp.End()
	v.vm.predictSeconds.Observe(time.Since(predStart).Seconds())
	slices.SortFunc(ranked, byConfidence)
	v.ranked = ranked
	v.stale = false
	return ranked
}

// fit refits the forest on the labelled set under a verifier.fit span.
func (v *Verifier) fit() {
	// Train on the labeled set in item order: the forest's bootstrap
	// draws examples by slice position, so the build order must be fixed
	// for the seeded training to be reproducible.
	exs := v.train[:0]
	for i, st := range v.state {
		if st == labeledNo || st == labeledYes {
			exs = append(exs, rforest.Example{X: v.vec(i), Y: st == labeledYes})
		}
	}
	v.train = exs
	fopt := v.opt.Forest
	fopt.Seed = v.opt.Seed + int64(v.iter)
	fitStart := time.Now()
	fsp := v.trace.Child("verifier.fit")
	err := v.forest.Fit(exs, fopt)
	fsp.SetAttrInt("examples", int64(len(exs)))
	fsp.SetAttrInt("trees", int64(fopt.Trees))
	fsp.End()
	v.vm.fitSeconds.Observe(time.Since(fitStart).Seconds())
	if err != nil {
		// No labels yet; callers only reach here after bootstrap, but be
		// safe and fall back to a trivial forest via a single negative.
		_ = v.forest.Fit([]rforest.Example{{X: make([]float64, len(v.vec(0))), Y: false}}, fopt)
	}
}

// Feedback records the user's labels for the pairs of the last Next call
// (aligned by position) and reranks for the next iteration.
func (v *Verifier) Feedback(labels []bool) error {
	if len(labels) != len(v.pending) {
		return fmt.Errorf("ranker: %d labels for %d pending pairs", len(labels), len(v.pending))
	}
	wasHybrid := !v.bootstrapping() && v.alRounds < v.opt.ALIterations
	newMatches := 0
	var roundPairs map[int64]bool // this round's matches, for WMR's reweighting
	if v.opt.Mode == ModeWMR {
		roundPairs = make(map[int64]bool, len(labels))
	}
	for i, y := range labels {
		idx := v.pending[i]
		if v.state[idx] != unlabeled {
			continue
		}
		v.nLabeled++
		v.state[idx] = labeledNo
		if y {
			v.state[idx] = labeledYes
		}
		p := idPair(v.ids[idx])
		if v.prov.Watching(p.A, p.B) {
			v.prov.Record(p.A, p.B, "verifier", "labeled",
				telemetry.L("label", strconv.FormatBool(y)),
				telemetry.L("iteration", strconv.Itoa(v.iter+1)))
		}
		if y {
			v.haveMatch = true
			newMatches++
			v.matches = append(v.matches, p)
			if roundPairs != nil {
				roundPairs[v.ids[idx]] = true
			}
			if v.prov.Watching(p.A, p.B) {
				v.prov.Record(p.A, p.B, "verifier", "confirmed_match",
					telemetry.L("match_number", strconv.Itoa(len(v.matches))))
			}
		} else {
			v.haveNon = true
		}
	}
	v.pending = v.pending[:0]
	v.iter++
	v.stale = true
	v.vm.iterations.Inc()
	v.vm.labelsGiven.Add(int64(len(labels)))
	v.vm.matches.Add(int64(newMatches))
	v.vm.labeledGauge.Set(float64(v.nLabeled))
	if wasHybrid {
		v.alRounds++
		v.vm.alIterations.Inc()
	}
	if newMatches == 0 {
		v.emptyStreak++
	} else {
		v.emptyStreak = 0
	}
	if v.opt.Mode == ModeWMR {
		// w_i <- w_i * (1 + log(1 + r_i)), r_i = matches of this round
		// appearing in list i; then renormalize and re-aggregate.
		total := 0.0
		for i, l := range v.lists {
			r := 0
			for _, p := range l.Pairs {
				if roundPairs[pairID(p.A, p.B)] {
					r++
				}
			}
			v.weights[i] *= 1 + math.Log(1+float64(r))
			total += v.weights[i]
		}
		for i := range v.weights {
			v.weights[i] /= total
		}
		v.aggregate()
	}
	if v.bootstrapping() {
		v.order = slices.DeleteFunc(v.order, func(i int32) bool { return v.state[i] != unlabeled })
	}
	return nil
}

// RunResult summarizes a completed verifier run.
type RunResult struct {
	Matches            []blocker.Pair
	Iterations         int
	LabelsGiven        int
	MatchesByIteration []int
}

// Session is the verifier-loop surface Run drives: both *Verifier and
// the core Debugger (which wraps each round with iteration telemetry)
// satisfy it.
type Session interface {
	Done() bool
	Next() []blocker.Pair
	Feedback(labels []bool) error
	Matches() []blocker.Pair
	Iterations() int
}

// Run drives a session to its stopping condition with the given labeler
// (typically the synthetic user oracle).
func Run(v Session, label func(a, b int) bool) RunResult {
	var res RunResult
	for !v.Done() {
		pairs := v.Next()
		if len(pairs) == 0 {
			break
		}
		labels := make([]bool, len(pairs))
		found := 0
		for i, p := range pairs {
			labels[i] = label(p.A, p.B)
			if labels[i] {
				found++
			}
		}
		if err := v.Feedback(labels); err != nil {
			panic(err) // programming error: labels always align with Next
		}
		res.LabelsGiven += len(labels)
		res.MatchesByIteration = append(res.MatchesByIteration, found)
	}
	res.Matches = v.Matches()
	res.Iterations = v.Iterations()
	return res
}
