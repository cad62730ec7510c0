package blocker

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"matchcatcher/internal/table"
	"matchcatcher/internal/telemetry"
)

// Concurrent wraps a blocker with a multicore driver: table B is split
// into Workers chunks, the inner blocker runs on each (A, chunk) pair
// concurrently, and the outputs are merged with B-row indices remapped.
// This is sound for every blocker whose semantics are a predicate over
// individual tuple pairs (hash, overlap, similarity, and rule blockers —
// all of this package except SortedNeighborhood and Canopy, whose output
// depends on the whole table; Block rejects those). Section 2 of the
// paper notes blockers are routinely parallelized this way.
type Concurrent struct {
	Inner   Blocker
	Workers int // default GOMAXPROCS
}

// NewConcurrent wraps inner with the default worker count.
func NewConcurrent(inner Blocker) *Concurrent { return &Concurrent{Inner: inner} }

// Name implements Blocker.
func (c *Concurrent) Name() string { return c.Inner.Name() + "+parallel" }

// pairLocal marks blockers whose output is a pure per-pair predicate, so
// partitioning a table cannot change the result. SuffixArray is excluded:
// its bucket-size prune depends on whole-table frequencies.
func pairLocal(b Blocker) bool {
	switch t := b.(type) {
	case *Hash, *Rule:
		return true
	case *Union:
		for _, m := range t.Members {
			if !pairLocal(m) {
				return false
			}
		}
		return true
	case *Concurrent:
		return pairLocal(t.Inner)
	}
	return false
}

// Block implements Blocker.
func (c *Concurrent) Block(a, b *table.Table) (*PairSet, error) {
	if !pairLocal(c.Inner) {
		return nil, fmt.Errorf("blocker %s: %T is not safe to partition (its output depends on whole-table context)", c.Name(), c.Inner)
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := b.NumRows()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return c.Inner.Block(a, b)
	}
	reg := telemetry.Default()
	partSeconds := reg.Histogram("mc_blocker_partition_seconds")
	reg.Gauge("mc_blocker_partitions").Set(float64(workers))
	type result struct {
		lo    int
		pairs *PairSet
		err   error
	}
	results := make([]result, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			start := time.Now()
			ps, err := c.Inner.Block(a, b.Range(lo, hi))
			partSeconds.Observe(time.Since(start).Seconds())
			results[w] = result{lo: lo, pairs: ps, err: err}
		}(w, lo, hi)
	}
	wg.Wait()
	out := NewPairSet()
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.pairs == nil {
			continue
		}
		lo := r.lo
		r.pairs.ForEach(func(ra, rb int) { out.Add(ra, rb+lo) })
	}
	count(c.Name(), out)
	return out, nil
}
