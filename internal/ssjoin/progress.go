package ssjoin

import (
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// Progress is the live observability side-channel of a join run: a fixed
// array of per-shard counter slots the probe loops flush into every
// progressStride heap pops, plus run-level config counters. It only ever
// observes — nothing in the join reads it back — so attaching one cannot
// change a single output bit (TestProgressDeterminismGrid holds the
// join to that).
//
// Ownership & cost model: every counter is an atomic in a slot padded
// out to two cache lines, so concurrent shards never false-share; the
// probe loop itself keeps plain local counters (runStats) and a
// progCursor flushes deltas at the existing stride-1024 checkpoint, so
// the per-pop cost of tracking is zero and the per-stride cost is a
// handful of uncontended atomic adds. A nil *Progress disables
// everything: the only residue is a nil check per stride.
//
// One Progress observes one run (JoinOne or JoinAll call). Shard slots
// are cumulative per shard index across the run's configs — probe
// sharding deals records round-robin (rec mod shards), so shard i of
// every config owns the same residue class and the per-slot totals are
// the run-wide work distribution of that class.
type Progress struct {
	startNanos     atomic.Int64 // wall clock at run begin (for ETA only)
	configsTotal   atomic.Int64
	configsStarted atomic.Int64
	configsDone    atomic.Int64
	finished       atomic.Bool
	cancelled      atomic.Bool
	shards         [progressShardSlots]paddedShardCounters
}

// progressShardSlots caps the tracked shard indexes. Shard counts come
// from ProbeWorkers (a small CPU-bound knob); indexes at or above the
// cap fold into their residue slot, keeping the array fixed-size so
// Progress never allocates after construction.
const progressShardSlots = 64

// progressStride is the probe-loop flush cadence in heap pops. It
// matches the loop's existing stride-1023 cancellation checkpoint, so
// sampling rides a branch the loop already takes.
const progressStride = 1024

// shardCounters is one shard slot. n holds the published runStats
// counters (n[cPrefixEvents] is the probes done). probesTotal counts the
// token instances the shard's owned records can pop; every instance is
// eventually accounted as popped or written off by a prune
// (n[cProbesSkipped]), which is what makes Fraction converge to 1.
type shardCounters struct {
	n           [numPublished]atomic.Int64
	probesTotal atomic.Int64 // instances owned (set once per config at seeding)
	mergeOffers atomic.Int64 // shard-heap pairs offered to the top-k merge
	heapLive    atomic.Int64 // event-heap size at the last sample
	topkLive    atomic.Int64 // top-k heap size at the last sample
	samples     atomic.Int64 // stride flushes taken
}

// paddedShardCounters pads each slot to a 128-byte multiple (two cache
// lines: the adjacent-line prefetcher makes 64 too small) so concurrent
// shard flushes never contend on a line.
type paddedShardCounters struct {
	shardCounters
	_ [(128 - unsafe.Sizeof(shardCounters{})%128) % 128]byte
}

// NewProgress builds a tracker for one run. Attach it via
// Options.Progress before calling JoinOne or JoinAll.
func NewProgress() *Progress { return &Progress{} }

// beginRun stamps the start time (first caller wins) and raises the
// config total. JoinOne/JoinAll call it on entry.
func (p *Progress) beginRun(configs int) {
	if p == nil {
		return
	}
	p.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	p.configsTotal.Add(int64(configs))
}

func (p *Progress) configStarted() {
	if p == nil {
		return
	}
	p.configsStarted.Add(1)
}

func (p *Progress) configDone() {
	if p == nil {
		return
	}
	p.configsDone.Add(1)
}

// finishRun marks the run complete (or cancelled). JoinOne/JoinAll call
// it on every return path.
func (p *Progress) finishRun(cancelled bool) {
	if p == nil {
		return
	}
	if cancelled {
		p.cancelled.Store(true)
	}
	p.finished.Store(true)
}

// slot returns the padded counter block for a shard index (nil receiver
// → nil, which disables the cursor downstream).
func (p *Progress) slot(shard int) *shardCounters {
	if p == nil {
		return nil
	}
	return &p.shards[shard%progressShardSlots].shardCounters
}

// progCursor carries the probe loop's last-flushed view of its published
// runStats counters, so each stride flush publishes only the delta. It
// lives on joinShard's stack; a nil slot turns every flush into a nil
// check.
type progCursor struct {
	slot *shardCounters
	last [numPublished]int64
}

// flush publishes the counters accumulated since the previous flush,
// plus the live heap sizes. It runs once per progressStride pops (and
// at loop exit), never per pop, and performs no allocation.
//
//mc:hotpath
func (c *progCursor) flush(rs *runStats, heapLive, topkLive int) {
	if c.slot == nil {
		return
	}
	for k := counter(0); k < numPublished; k++ {
		if d := rs.n[k] - c.last[k]; d != 0 {
			c.slot.n[k].Add(d)
			c.last[k] = rs.n[k]
		}
	}
	c.slot.heapLive.Store(int64(heapLive))
	c.slot.topkLive.Store(int64(topkLive))
	c.slot.samples.Add(1)
	rs.n[cProgressSamples]++
}

// ShardProgress is one shard slot's view in a snapshot.
type ShardProgress struct {
	Shard         int   `json:"shard"`
	ProbesDone    int64 `json:"probes_done"`
	ProbesSkipped int64 `json:"probes_skipped"`
	ProbesTotal   int64 `json:"probes_total"`
	HeapLive      int64 `json:"heap_live"`
	TopKLive      int64 `json:"topk_live"`
}

// ShardSkew summarizes the work distribution across shard slots: work
// units are popped prefix events, the ratio is max over mean (1 =
// perfectly balanced).
type ShardSkew struct {
	Shards         int     `json:"shards"`
	WorkMin        int64   `json:"work_min"`
	WorkMax        int64   `json:"work_max"`
	WorkP50        int64   `json:"work_p50"`
	ImbalanceRatio float64 `json:"imbalance_ratio"`
}

// ProgressSnapshot is a consistent-enough cut of a running join for
// dashboards and meters: monotone counters plus derived completion and
// ETA estimates. Individual counters are loaded independently (no
// global lock — the join must not stall for observers), so totals can
// be one stride apart across shards; every derived value is an
// estimate, never an exactness claim.
type ProgressSnapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ConfigsTotal   int64   `json:"configs_total"`
	ConfigsStarted int64   `json:"configs_started"`
	ConfigsDone    int64   `json:"configs_done"`
	// Probe accounting over the configs started so far: every owned token
	// instance ends up popped (done) or pruned away (skipped), so
	// done+skipped converges to total as configs finish.
	ProbesDone    int64 `json:"probes_done"`
	ProbesSkipped int64 `json:"probes_skipped"`
	ProbesTotal   int64 `json:"probes_total"`
	// Candidates killed per prune tier (DESIGN.md "Join progress & skew
	// observability").
	PruneKillPushCap    int64 `json:"prune_kill_push_cap"`
	PruneKillLoopBreak  int64 `json:"prune_kill_loop_break"`
	PruneKillFlushBound int64 `json:"prune_kill_flush_bound"`
	// The strict pair-filter tiers (length_filter / prefix_pos in the
	// telemetry tier vocabulary): pairs whose score bound at first touch
	// proved they can never reach the running top-k.
	PruneKillLengthFilter int64 `json:"prune_kill_length_filter"`
	PruneKillPrefixPos    int64 `json:"prune_kill_prefix_pos"`
	MergeOffers           int64 `json:"merge_offers"`
	EventHeapLive         int64 `json:"event_heap_live"`
	TopKLive              int64 `json:"topk_live"`
	Samples               int64 `json:"samples"`
	// Fraction estimates run completion in [0, 1]; ETASeconds is -1 until
	// enough work has been accounted to extrapolate.
	Fraction   float64         `json:"fraction"`
	ETASeconds float64         `json:"eta_seconds"`
	Done       bool            `json:"done"`
	Cancelled  bool            `json:"cancelled"`
	Shards     []ShardProgress `json:"shards,omitempty"`
	Skew       ShardSkew       `json:"skew"`
}

// Snapshot derives the run's current view. It is safe to call from any
// goroutine at any time, including after the run finished; it allocates
// (the shard slice) and so must never be called from the probe loop.
func (p *Progress) Snapshot() ProgressSnapshot {
	var snap ProgressSnapshot
	if p == nil {
		snap.ETASeconds = -1
		return snap
	}
	if start := p.startNanos.Load(); start != 0 {
		snap.ElapsedSeconds = time.Since(time.Unix(0, start)).Seconds()
	}
	snap.ConfigsTotal = p.configsTotal.Load()
	snap.ConfigsStarted = p.configsStarted.Load()
	snap.ConfigsDone = p.configsDone.Load()
	snap.Done = p.finished.Load()
	snap.Cancelled = p.cancelled.Load()

	works := make([]int64, 0, progressShardSlots)
	fields := snap.counterFields()
	for i := range p.shards {
		c := &p.shards[i].shardCounters
		var n [numPublished]int64
		for k := range n {
			n[k] = c.n[k].Load()
		}
		total := c.probesTotal.Load()
		done, skipped := n[cPrefixEvents], n[cProbesSkipped]
		if total == 0 && done == 0 && skipped == 0 {
			continue // slot never activated
		}
		for k, f := range fields {
			*f += n[k]
		}
		snap.ProbesTotal += total
		snap.MergeOffers += c.mergeOffers.Load()
		snap.EventHeapLive += c.heapLive.Load()
		snap.TopKLive += c.topkLive.Load()
		snap.Samples += c.samples.Load()
		snap.Shards = append(snap.Shards, ShardProgress{
			Shard:         i,
			ProbesDone:    done,
			ProbesSkipped: skipped,
			ProbesTotal:   total,
			HeapLive:      c.heapLive.Load(),
			TopKLive:      c.topkLive.Load(),
		})
		works = append(works, done)
	}
	snap.Skew = skewOf(works)
	snap.Fraction, snap.ETASeconds = estimate(&snap)
	return snap
}

// counterFields maps each published counter to the snapshot field that
// totals it across shard slots.
func (s *ProgressSnapshot) counterFields() [numPublished]*int64 {
	return [numPublished]*int64{
		cPrefixEvents:      &s.ProbesDone,
		cProbesSkipped:     &s.ProbesSkipped,
		cKillsPushCap:      &s.PruneKillPushCap,
		cKillsLoopBreak:    &s.PruneKillLoopBreak,
		cKillsFlushBound:   &s.PruneKillFlushBound,
		cKillsLengthFilter: &s.PruneKillLengthFilter,
		cKillsPrefixPos:    &s.PruneKillPrefixPos,
	}
}

// TierKills is one prune tier's kill count in a progress snapshot.
type TierKills struct {
	Label string // the tier's compact name for meters: push, loop, ...
	Kills int64
}

// PruneTiers returns the snapshot's kills per prune tier, in the order
// the join's counter table declares the tiers.
func (s *ProgressSnapshot) PruneTiers() []TierKills {
	fields := s.counterFields()
	out := make([]TierKills, len(pruneTiers))
	for i, t := range pruneTiers {
		out[i] = TierKills{Label: t.label, Kills: *fields[t.c]}
	}
	return out
}

// skewOf summarizes a work distribution (one value per active shard).
func skewOf(works []int64) ShardSkew {
	sk := ShardSkew{Shards: len(works)}
	if len(works) == 0 {
		return sk
	}
	sorted := append([]int64(nil), works...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	sk.WorkMin = sorted[0]
	sk.WorkMax = sorted[len(sorted)-1]
	sk.WorkP50 = sorted[len(sorted)/2]
	var sum int64
	for _, w := range sorted {
		sum += w
	}
	if sum > 0 {
		mean := float64(sum) / float64(len(sorted))
		sk.ImbalanceRatio = float64(sk.WorkMax) / mean
	}
	return sk
}

// estimate derives (fraction, eta). The per-config probe fraction
// (done+skipped over total) covers only the configs started, so it is
// scaled down by started/total; unstarted configs are extrapolated at
// the average cost of the started ones. ETA is a straight-line
// extrapolation of elapsed time over the remaining fraction.
func estimate(s *ProgressSnapshot) (float64, float64) {
	if s.Done {
		return 1, 0
	}
	if s.ConfigsTotal == 0 || s.ConfigsStarted == 0 || s.ProbesTotal == 0 {
		return 0, -1
	}
	accounted := float64(s.ProbesDone + s.ProbesSkipped)
	estTotal := float64(s.ProbesTotal) * float64(s.ConfigsTotal) / float64(s.ConfigsStarted)
	f := accounted / estTotal
	if f > 1 {
		f = 1
	}
	if f <= 0 {
		return 0, -1
	}
	eta := s.ElapsedSeconds * (1 - f) / f
	return f, eta
}
