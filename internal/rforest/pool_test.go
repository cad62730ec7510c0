package rforest

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// diffReference reports where f first differs from the reference trees
// ("" when it grew exactly them).
func diffReference(f *Forest, ref []*refNode) string {
	if f.NumTrees() != len(ref) {
		return "tree count"
	}
	end := int32(0)
	for k, r := range ref {
		if f.roots[k] != end {
			return "tree start"
		}
		var diff string
		if diff, end = sameTree(f, f.roots[k], r); diff != "" {
			return diff
		}
	}
	if int(end) != len(f.nodes) {
		return "slab length"
	}
	return ""
}

// TestConcurrentFitsMatchReference fits distinct forests from several
// goroutines at once, each refitting on growing and shrinking training
// sets, so pooled scratch blocks pass between fits of different shapes.
// Every forest must be the reference trainer's. Run it under -race.
func TestConcurrentFitsMatchReference(t *testing.T) {
	const workers, fits = 6, 12
	type job struct {
		exs []Example
		opt Options
		ref []*refNode
	}
	rng := rand.New(rand.NewSource(21))
	jobs := make([][]job, workers)
	for w := range jobs {
		for range fits {
			d := 1 + rng.Intn(9)
			exs := randomDataset(rng, 1+rng.Intn(250), d, []int{0, 2, 5, 1000}[rng.Intn(4)])
			opt := Options{Trees: 1 + rng.Intn(4), MinLeaf: rng.Intn(3), Seed: rng.Int63()}
			jobs[w] = append(jobs[w], job{exs, opt, referenceTrain(exs, opt)})
		}
	}
	var wg sync.WaitGroup
	for w := range jobs {
		wg.Add(1)
		go func(jobs []job) {
			defer wg.Done()
			var f Forest
			for k, j := range jobs {
				if err := f.Fit(j.exs, j.opt); err != nil {
					t.Error(err)
					return
				}
				if diff := diffReference(&f, j.ref); diff != "" {
					t.Errorf("worker %d fit %d differs from the reference: %s", w, k, diff)
					return
				}
			}
		}(jobs[w])
	}
	wg.Wait()
	checkFitPool(t)
}

// TestFitPoolBounded: however many blocks are out at once, the free list
// keeps at most GOMAXPROCS of them, and none holds a forest. A block has
// no field for the caller's examples: it copies the values it sorts.
func TestFitPoolBounded(t *testing.T) {
	exs := randomDataset(rand.New(rand.NewSource(22)), 50, 3, 5)
	var f Forest
	if err := f.Fit(exs, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	blocks := make([]*trainer, runtime.GOMAXPROCS(0)+3)
	for i := range blocks {
		blocks[i] = getTrainer()
	}
	for _, b := range blocks {
		putTrainer(b)
	}
	checkFitPool(t)
}

func checkFitPool(t *testing.T) {
	t.Helper()
	fitPool.mu.Lock()
	defer fitPool.mu.Unlock()
	if n, limit := len(fitPool.free), runtime.GOMAXPROCS(0); n > limit {
		t.Errorf("free list holds %d blocks, want at most GOMAXPROCS = %d", n, limit)
	}
	for i, b := range fitPool.free {
		if b.f != nil {
			t.Errorf("free block %d pins a forest", i)
		}
	}
}
