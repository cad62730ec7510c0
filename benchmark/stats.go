package main

import (
	"math"
	"sort"
	"time"

	"matchcatcher/internal/perfstat"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported. With fewer, a run's "p90" is one or two unlucky samples and
// moves between identical runs.
const minBeyond = 10

// dist summarizes one metric's samples within a run: the median and
// quartiles always, and the p90/p99 tails only where minBeyond samples lie
// beyond them.
type dist struct {
	N        int
	P50      float64
	Q1, Q3   float64
	P90, P99 float64
	HasP90   bool
	HasP99   bool
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := sortedCopy(samples)
	q1, q3 := quartiles(s)
	d := dist{N: len(s), P50: perfstat.Summarize(s).Median, Q1: q1, Q3: q3}
	d.P90, d.HasP90 = tail(s, 0.90)
	d.P99, d.HasP99 = tail(s, 0.99)
	return d
}

// tail returns the nearest-rank p-quantile of sorted samples and whether
// at least minBeyond samples lie above it.
func tail(sorted []float64, p float64) (float64, bool) {
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted)-1-i >= minBeyond
}

// quartiles returns the first and third quartiles of sorted samples by
// the "exclusive" method of Python's statistics.quantiles(data, n=4), the
// rule the benchmark's acceptance check applies to its run-to-run spread,
// so -compare reports the same spread that check sees.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median: the
// repeatability a metric's regression bound must exceed.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	s := sortedCopy(samples)
	q1, q3 := quartiles(s)
	med := perfstat.Summarize(s).Median
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return perfstat.Summarize(samples).Median
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return perfstat.Summarize(samples).Mean
}
