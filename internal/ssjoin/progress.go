package ssjoin

import (
	"sync/atomic"
	"time"
)

// Progress is the live observability side-channel of a join run: one
// block of work counters the row loops flush into every progressStride
// rows or posting entries, plus run-level config counters. It only ever
// observes — nothing in the join reads it back — so attaching one cannot
// change a single output bit (TestProgressDeterminismGrid holds the
// join to that).
//
// Cost model: every counter is an atomic; the row loop itself keeps
// plain local counters (runStats) and a progCursor flushes deltas at the
// existing stride-1024 checkpoint, so the per-entry cost of tracking is
// zero and the per-stride cost is a handful of atomic adds. Concurrent
// configs (Workers > 1) flush into the same block. A nil *Progress
// disables everything: the only residue is a nil check per stride.
//
// One Progress observes one run (JoinOne or JoinAll call); its counters
// are cumulative across the run's configs.
type Progress struct {
	startNanos     atomic.Int64 // wall clock at run begin (for ETA only)
	configsTotal   atomic.Int64
	configsStarted atomic.Int64
	configsDone    atomic.Int64
	finished       atomic.Bool
	cancelled      atomic.Bool
	c              progressCounters
}

// progressStride is the row loop's checkpoint cadence, in rows plus
// posting entries walked. The flush rides the loop's cancellation
// checkpoint, a branch the loop already takes; the index build reads
// cancellation at the same stride, in records. A power of two: the
// index loop tests it with a mask.
const progressStride = 1024

// progressCounters is the run's work-counter block. n holds the
// published runStats counters (n[cRows] is the rows done).
// probesTotal counts the A rows of the configs whose index is built;
// every one of them runs to its end, which is what makes Fraction
// converge to 1.
type progressCounters struct {
	n           [numPublished]atomic.Int64
	probesTotal atomic.Int64 // A rows of the started configs (added after the index build)
	rowLive     atomic.Int64 // the current row's candidates at the last sample
	topkLive    atomic.Int64 // top-k heap size at the last sample
	samples     atomic.Int64 // stride flushes taken
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

// counters returns the run's counter block (nil receiver → nil, which
// disables the cursor downstream).
func (p *Progress) counters() *progressCounters {
	if p == nil {
		return nil
	}
	return &p.c
}

// progCursor carries the row loop's last-flushed view of its published
// runStats counters, so each stride flush publishes only the delta. It
// lives in the rowProbe; a nil block turns every flush into a nil check.
type progCursor struct {
	block *progressCounters
	last  [numPublished]int64
}

// flush publishes the counters accumulated since the previous flush,
// plus the live row and heap sizes. It runs once per progressStride
// rows or posting entries (and at loop exit), and performs no
// allocation.
//
//mc:hotpath
func (c *progCursor) flush(rs *runStats, rowLive, topkLive int) {
	if c.block == nil {
		return
	}
	for k := counter(0); k < numPublished; k++ {
		if d := rs.n[k] - c.last[k]; d != 0 {
			c.block.n[k].Add(d)
			c.last[k] = rs.n[k]
		}
	}
	c.block.rowLive.Store(int64(rowLive))
	c.block.topkLive.Store(int64(topkLive))
	c.block.samples.Add(1)
	rs.n[cProgressSamples]++
}

// ProgressSnapshot is a consistent-enough cut of a running join for
// dashboards and meters: monotone counters plus derived completion and
// ETA estimates. Individual counters are loaded independently (no
// global lock — the join must not stall for observers), so totals can
// be one stride apart across concurrent configs; every derived value is
// an estimate, never an exactness claim.
type ProgressSnapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ConfigsTotal   int64   `json:"configs_total"`
	ConfigsStarted int64   `json:"configs_started"`
	ConfigsDone    int64   `json:"configs_done"`
	// Row accounting over the configs started so far: ProbesDone counts
	// A rows walked to their end, ProbesTotal the A rows of every config
	// whose index is built, so done converges to total as configs
	// finish.
	ProbesDone  int64 `json:"probes_done"`
	ProbesTotal int64 `json:"probes_total"`
	// Candidates killed per prune tier (DESIGN.md "Join progress
	// observability").
	PruneKillPushCap    int64 `json:"prune_kill_push_cap"`
	PruneKillLoopBreak  int64 `json:"prune_kill_loop_break"`
	PruneKillFlushBound int64 `json:"prune_kill_flush_bound"`
	// The strict pair-filter tiers (length_filter / prefix_pos in the
	// telemetry tier vocabulary): pairs whose score bound at first touch
	// proved they can never reach the running top-k.
	PruneKillLengthFilter int64 `json:"prune_kill_length_filter"`
	PruneKillPrefixPos    int64 `json:"prune_kill_prefix_pos"`
	// RowLive is the candidates of the row in flight at the last sample
	// (the row array's touched entries); 0 once the run ends.
	RowLive  int64 `json:"row_live"`
	TopKLive int64 `json:"topk_live"`
	Samples  int64 `json:"samples"`
	// Fraction estimates run completion in [0, 1]; ETASeconds is -1 until
	// enough work has been accounted to extrapolate.
	Fraction   float64 `json:"fraction"`
	ETASeconds float64 `json:"eta_seconds"`
	Done       bool    `json:"done"`
	Cancelled  bool    `json:"cancelled"`
}

// Snapshot derives the run's current view. It is safe to call from any
// goroutine at any time, including after the run finished.
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
	for k, f := range snap.counterFields() {
		*f = p.c.n[k].Load()
	}
	snap.ProbesTotal = p.c.probesTotal.Load()
	snap.RowLive = p.c.rowLive.Load()
	snap.TopKLive = p.c.topkLive.Load()
	snap.Samples = p.c.samples.Load()
	snap.Fraction, snap.ETASeconds = estimate(&snap)
	return snap
}

// counterFields maps each published counter to the snapshot field that
// reports it.
func (s *ProgressSnapshot) counterFields() [numPublished]*int64 {
	return [numPublished]*int64{
		cRows:              &s.ProbesDone,
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

// estimate derives (fraction, eta). The per-config row fraction
// (done over total) covers only the configs started, so it is
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
	accounted := float64(s.ProbesDone)
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
