package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// usage is a snapshot of the process's cumulative resource use. Deltas
// between two snapshots attribute allocation, GC and CPU to the work done
// between them.
type usage struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, the runtime's estimate
	cpu        time.Duration
}

func readUsage() usage {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	u := usage{cpu: processCPU()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[2].Value.Float64()
	}
	return u
}

// readAllocs is the number of bytes the process has allocated on the heap.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func (u usage) since(before usage) usage {
	return usage{
		allocBytes: u.allocBytes - before.allocBytes,
		gcCycles:   u.gcCycles - before.gcCycles,
		gcCPU:      u.gcCPU - before.gcCPU,
		cpu:        u.cpu - before.cpu,
	}
}

func (u usage) plus(more usage) usage {
	return usage{
		allocBytes: u.allocBytes + more.allocBytes,
		gcCycles:   u.gcCycles + more.gcCycles,
		gcCPU:      u.gcCPU + more.gcCPU,
		cpu:        u.cpu + more.cpu,
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
