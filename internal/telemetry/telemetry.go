// Package telemetry is MatchCatcher's observability subsystem: a
// concurrency-safe metrics registry (atomic counters, gauges, and
// exponential-bucket histograms, all label-aware), hierarchical trace
// spans that roll up into per-stage latency histograms, and
// Prometheus text-format exposition with an optional HTTP listener that
// also mounts expvar and net/http/pprof.
//
// The registry is lock-striped: series resolution hashes the fully-qualified series key onto one of a
// fixed number of shards, so concurrent instrument lookups from the join
// workers never contend on a single mutex. Instrument *updates* never
// take a lock at all — they are plain atomics.
//
// Metric naming convention: mc_<pkg>_<name>, with counters suffixed
// _total and latency histograms suffixed _seconds. Ended trace spans all
// roll up into the shared histogram mc_stage_seconds{stage="<name>"}.
//
// Hot paths resolve their instruments once (at run setup) and hold the
// returned pointers; per-event increments are then a single atomic add.
// A nil *Registry and nil instruments are safe no-ops, so callers can
// disable telemetry entirely (see Disabled) without branching at every
// call site.
package telemetry

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value dimension attached to a metric series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) instrument.
type series struct {
	name   string
	labels []Label // sorted by key
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// numShards is the lock-stripe width. 16 shards keep contention
// negligible for the worker counts the joint executor runs with.
const numShards = 16

type shard struct {
	mu sync.RWMutex
	m  map[string]*series
}

// Registry holds metric series. The zero value is NOT ready to use; call
// New. A nil *Registry is a valid no-op registry (every getter returns a
// nil instrument, and nil instruments ignore updates).
type Registry struct {
	off    bool
	shards [numShards]shard

	helpMu sync.RWMutex
	help   map[string]string // metric name -> # HELP text
}

// New creates an empty registry.
func New() *Registry {
	r := &Registry{help: make(map[string]string)}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*series)
	}
	return r
}

// SetHelp attaches a one-line description to a metric name. The
// Prometheus exposition emits it as the metric's # HELP line (before the
// # TYPE line). Setting again overwrites; empty text clears. Safe on a
// nil or disabled registry.
func (r *Registry) SetHelp(name, text string) {
	if r == nil || r.off {
		return
	}
	r.helpMu.Lock()
	if text == "" {
		delete(r.help, name)
	} else {
		r.help[name] = text
	}
	r.helpMu.Unlock()
}

// helpFor returns the HELP text registered for name, or "".
func (r *Registry) helpFor(name string) string {
	if r == nil || r.off {
		return ""
	}
	r.helpMu.RLock()
	defer r.helpMu.RUnlock()
	return r.help[name]
}

var std = New()

// Default returns the process-wide registry that instrumented packages
// fall back to when no registry is injected.
func Default() *Registry { return std }

var disabled = &Registry{off: true}

// Disabled returns a registry whose getters all return nil instruments:
// every update through it is a no-op. Used to measure instrumentation
// overhead and to switch telemetry off wholesale.
func Disabled() *Registry { return disabled }

// Or returns r, or the process default when r is nil. Instrumented
// packages use it to resolve an injected-or-default registry.
func Or(r *Registry) *Registry {
	if r == nil {
		return std
	}
	return r
}

// seriesKey renders the fully qualified series identity ("name" or
// `name{k="v",k2="v2"}` with keys sorted) used both as the registry map
// key and as the snapshot map key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteString(`"`)
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func shardFor(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % numShards)
}

// lookup resolves (creating on first use) the series for the key.
func (r *Registry) lookup(name string, k kind, labels []Label) *series {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	sh := &r.shards[shardFor(key)]
	sh.mu.RLock()
	s := sh.m[key]
	sh.mu.RUnlock()
	if s == nil {
		sh.mu.Lock()
		s = sh.m[key]
		if s == nil {
			s = &series{name: name, labels: labels, kind: k}
			switch k {
			case kindCounter:
				s.c = &Counter{}
			case kindGauge:
				s.g = &Gauge{}
			case kindHistogram:
				s.h = newHistogram(defaultHistStart, defaultHistFactor, defaultHistBuckets)
			}
			sh.m[key] = s
		}
		sh.mu.Unlock()
	}
	if s.kind != k {
		panic(fmt.Sprintf("telemetry: series %s registered as %s, requested as %s", key, s.kind, k))
	}
	return s
}

// Counter returns (registering on first use) the counter series.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil || r.off {
		return nil
	}
	return r.lookup(name, kindCounter, labels).c
}

// Gauge returns (registering on first use) the gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil || r.off {
		return nil
	}
	return r.lookup(name, kindGauge, labels).g
}

// Histogram returns (registering on first use) the histogram series,
// with the default exponential buckets (1µs growing ×2 up to ~9 min,
// sized for latencies in seconds but serviceable for any positive value).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil || r.off {
		return nil
	}
	return r.lookup(name, kindHistogram, labels).h
}

// all returns every registered series, sorted by name then label key,
// the order exposition and snapshots use.
func (r *Registry) all() []*series {
	if r == nil || r.off {
		return nil
	}
	var out []*series
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return seriesKey(out[i].name, out[i].labels) < seriesKey(out[j].name, out[j].labels)
	})
	return out
}

// Reset removes every registered series. Pointers previously handed out
// keep working but are no longer reachable from the registry; intended
// for tests and per-run isolation.
func (r *Registry) Reset() {
	if r == nil || r.off {
		return
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		sh.m = make(map[string]*series)
		sh.mu.Unlock()
	}
}
