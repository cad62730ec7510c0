package telemetry

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Tracing: hierarchical span trees on top of the flat metric registry.
//
// PR 1's Span rolls one duration into mc_stage_seconds and forgets the
// shape of the run. A Tracer additionally remembers *structure*: every
// TraceSpan records its parent, its children, typed events, and string
// attributes, so a finished run can be exported as a Chrome trace_event
// file (about:tracing / Perfetto) or dumped as a human-readable tree.
// Ending a TraceSpan still observes mc_stage_seconds{stage="<name>"} when
// the tracer carries a registry, so the flat latency histograms keep
// working unchanged for dashboards while the tree view gains structure.
//
// Memory is bounded: a tracer retains at most MaxSpans spans (default
// 65536); spans started beyond the cap are counted as dropped and become
// no-ops, so tracing can stay always-on without risking the heap on
// pathological workloads. A nil *Tracer and a nil *TraceSpan are valid
// no-op receivers for every method, mirroring the registry's nil
// discipline: call sites never branch on "is tracing enabled".

// DefaultMaxSpans is the default span-retention cap of a Tracer.
const DefaultMaxSpans = 1 << 16

// spanEvent is one typed, timestamped point event inside a span.
type spanEvent struct {
	at    time.Time
	name  string
	attrs []Label
}

// TraceSpan is one node of a trace tree: a named timed operation with a
// parent, attributes, and point events. Create roots with Tracer.Start
// and children with Child; always End spans (unfinished spans export with
// an end time of "export now").
type TraceSpan struct {
	tr     *Tracer
	id     uint64
	parent uint64
	root   uint64 // trace id: the id of the tree's root span
	name   string
	start  time.Time

	mu     sync.Mutex
	end    time.Time
	attrs  []Label
	events []spanEvent
}

// Tracer collects spans into trees. The zero value is not ready; use
// NewTracer. All methods are safe for concurrent use; a nil *Tracer is a
// no-op tracer (Start returns nil, and nil spans no-op everywhere).
type Tracer struct {
	reg *Registry // optional: End bridges into mc_stage_seconds

	mu       sync.Mutex
	epoch    time.Time
	spans    []*TraceSpan
	nextID   uint64
	dropped  int64
	maxSpans int
}

// NewTracer creates a tracer. reg may be nil; when non-nil, every ended
// span also observes mc_stage_seconds{stage="<span name>"} so the flat
// stage histograms stay populated alongside the tree.
func NewTracer(reg *Registry) *Tracer {
	return &Tracer{reg: reg, epoch: time.Now(), maxSpans: DefaultMaxSpans}
}

// SetMaxSpans bounds span retention (n <= 0 restores the default). Only
// meaningful before spans are started.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded by the retention cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// register allocates and retains a span, or returns nil at the cap.
func (t *Tracer) register(parent *TraceSpan, name string, attrs []Label) *TraceSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.nextID++
	s := &TraceSpan{tr: t, id: t.nextID, name: name, start: now, attrs: sortLabels(attrs)}
	if parent != nil {
		s.parent = parent.id
		s.root = parent.root
	} else {
		s.root = s.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Start begins a new root span (a new trace tree).
func (t *Tracer) Start(name string, attrs ...Label) *TraceSpan {
	return t.register(nil, name, attrs)
}

// Child begins a child span under s. A nil receiver returns nil, so call
// chains degrade to no-ops when tracing is off.
func (s *TraceSpan) Child(name string, attrs ...Label) *TraceSpan {
	if s == nil {
		return nil
	}
	return s.tr.register(s, name, attrs)
}

// Event records a typed point event on the span.
func (s *TraceSpan) Event(name string, attrs ...Label) {
	if s == nil {
		return
	}
	ev := spanEvent{at: time.Now(), name: name, attrs: sortLabels(attrs)}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// SetAttr sets (or overwrites) one attribute on the span.
func (s *TraceSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt is SetAttr for integer values. On a nil span it returns
// before formatting, so untraced callers allocate nothing.
func (s *TraceSpan) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// End finishes the span, bridges its latency into the tracer registry's
// mc_stage_seconds{stage="<name>"} histogram, and returns the elapsed
// time. Ending twice keeps the first end time.
func (s *TraceSpan) End() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.mu.Lock()
	if !s.end.IsZero() {
		d := s.end.Sub(s.start)
		s.mu.Unlock()
		return d
	}
	s.end = now
	s.mu.Unlock()
	d := now.Sub(s.start)
	if s.tr != nil && s.tr.reg != nil {
		//lint:allow metricname mc_stage_seconds is the cross-package stage rollup shared by trace spans and stage timers
		s.tr.reg.Histogram(StageHistogram, Label{Key: "stage", Value: s.name}).Observe(d.Seconds())
	}
	return d
}

// Name returns the span's name ("" on nil).
func (s *TraceSpan) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// ID returns the span's id (0 on nil).
func (s *TraceSpan) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the id of the span's root (0 on nil), shared by every
// span of one tree — the correlation key structured logs attach.
func (s *TraceSpan) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.root
}

// Tracer returns the owning tracer (nil on nil).
func (s *TraceSpan) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span, for log/trace
// correlation across call chains (see NewLogger).
func ContextWithSpan(ctx context.Context, s *TraceSpan) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext extracts the span installed by ContextWithSpan, or nil.
func SpanFromContext(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return s
}
