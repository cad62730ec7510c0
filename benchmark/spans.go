package main

import (
	"sort"
	"strings"

	"matchcatcher/internal/telemetry"
)

// spanNode is one exported span linked to its children, with its self
// time: its duration minus the union of its children's intervals. The
// union, not the sum, because JoinAll's workers run ssjoin.config spans
// side by side under one parent.
type spanNode struct {
	telemetry.ExportedSpan
	children []*spanNode
	self     int64 // µs
}

// sessionTrees links exported spans into one tree per session root and
// computes every span's self time.
func sessionTrees(spans []telemetry.ExportedSpan) []*spanNode {
	byID := make(map[uint64]*spanNode, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spanNode{ExportedSpan: spans[i]}
	}
	var roots []*spanNode
	for i := range spans { // Export order: (start, id), so roots come out in start order
		n := byID[spans[i].ID]
		if p, ok := byID[n.ParentID]; ok && n.ParentID != 0 {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	for _, n := range byID {
		n.self = selfTime(n)
	}
	return roots
}

// selfTime is n's duration minus the part of it covered by at least one
// child.
func selfTime(n *spanNode) int64 {
	start, end := n.StartMicros, n.StartMicros+n.DurMicros
	iv := make([][2]int64, 0, len(n.children))
	for _, c := range n.children {
		lo, hi := c.StartMicros, c.StartMicros+c.DurMicros
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return n.DurMicros - unionLen(iv)
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerOf maps a span name to the module it times. The benchmark names
// its own spans "<module>.<call>"; the program's verifier spans belong to
// the ranker module, and the session root is the benchmark's own harness
// time (labelling, digests), which no layer owns.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	switch l {
	case "verifier":
		return "ranker"
	case "session":
		return "harness"
	}
	return l
}

// layerTimes is one layer's share of one session, in µs.
type layerTimes struct {
	// blocking is the layer's calls made directly by the session, one
	// after another: the steps the user waits through.
	blocking int64
	// busy sums the layer's outermost spans; concurrent spans each count.
	busy int64
	// self sums the self times of all the layer's spans.
	self int64
}

// sessionFold is one session tree folded into per-layer and per-span-name
// totals.
type sessionFold struct {
	wall int64
	// layers holds each module's times; "harness" is the root's self
	// time, the session time no layer span covers.
	layers map[string]*layerTimes
	durs   map[string][]int64 // span name -> each span's duration
	selfs  map[string]int64   // span name -> summed self time
}

func fold(root *spanNode) sessionFold {
	f := sessionFold{
		wall:   root.DurMicros,
		layers: map[string]*layerTimes{}, durs: map[string][]int64{}, selfs: map[string]int64{},
	}
	lt := func(l string) *layerTimes {
		if f.layers[l] == nil {
			f.layers[l] = &layerTimes{}
		}
		return f.layers[l]
	}
	*lt("harness") = layerTimes{blocking: root.self, busy: root.self, self: root.self}
	for _, c := range root.children {
		lt(layerOf(c.Name)).blocking += c.DurMicros
	}
	var walk func(n *spanNode, parentLayer string)
	walk = func(n *spanNode, parentLayer string) {
		l := layerOf(n.Name)
		t := lt(l)
		if l != parentLayer {
			t.busy += n.DurMicros
		}
		t.self += n.self
		f.durs[n.Name] = append(f.durs[n.Name], n.DurMicros)
		f.selfs[n.Name] += n.self
		for _, c := range n.children {
			walk(c, l)
		}
	}
	for _, c := range root.children {
		walk(c, "harness")
	}
	return f
}

// accounted is the share of the session's wall time that its blocking
// layer steps cover. The steps run one after another inside the root, so
// the rest is the harness's own time between them.
func (f sessionFold) accounted() float64 {
	if f.wall == 0 {
		return 0
	}
	var sum int64
	for l, t := range f.layers {
		if l != "harness" {
			sum += t.blocking
		}
	}
	return float64(sum) / float64(f.wall)
}
