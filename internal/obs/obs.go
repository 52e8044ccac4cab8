// Package obs is the repository's zero-dependency observability layer:
// span timers over the monotonic clock, atomic counters and gauges, and
// a registry snapshot that serializes to JSON. The hot paths of the
// greedy algorithms (internal/algo, internal/cover), the streaming
// pipeline (internal/stream), and the exact/pattern solvers thread
// their instrumentation through this package; the public facade exposes
// the result as kanon.Result.Stats and the CLIs render it with -trace.
//
// Spans are the only clock and the only narrator. A span measures its
// phase, End hands the frozen duration to callers that record it
// elsewhere, and a subtree marked with Narrate logs one phase_done line
// per span end through the run's Events, so the log cannot disagree
// with the trace.
//
// Everything is nil-safe by construction: a nil *Tracer is the disabled
// tracer, a nil *Span or *Counter is a disabled instrument, and every
// method on them is a nil-check no-op. Instrumented code therefore
// never branches on "is tracing on" — it calls the same methods either
// way, and the disabled path costs one nil check per call (the obs test
// suite pins this to zero allocations). Crucially, disabled spans take
// no clock readings, so Workers>1 determinism and benchmark numbers are
// unchanged when tracing is off.
//
// Span durations come from time.Since on time.Time values that carry
// Go's monotonic clock reading, so wall-clock adjustments (NTP steps)
// cannot corrupt phase timings.
package obs

import (
	"sync"
	"time"
)

// Tracer owns one run's span forest and metric registry. Create one per
// traced operation with New, start a root span, and pass spans down the
// call tree. All methods are safe for concurrent use; a nil *Tracer
// disables everything downstream of it.
type Tracer struct {
	mu         sync.Mutex
	roots      []*Span
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	progress   map[string]*Progress
}

// New returns an enabled tracer with an empty registry.
func New() *Tracer { return &Tracer{} }

// Start opens a root span. On a nil tracer it returns a nil (disabled)
// span without reading the clock.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Counter returns the named counter, creating it on first use. Distinct
// names are distinct counters; the same name always returns the same
// counter, so concurrent holders share one atomic cell. Returns nil
// (a disabled counter) on a nil tracer.
//
// Lookup takes the registry lock — hot loops should hoist the *Counter
// out and call Add on it directly.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counters == nil {
		t.counters = make(map[string]*Counter)
	}
	c := t.counters[name]
	if c == nil {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// tracer. Same hoisting advice as Counter.
func (t *Tracer) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gauges == nil {
		t.gauges = make(map[string]*Gauge)
	}
	g := t.gauges[name]
	if g == nil {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Span is one timed region of a run. Spans form a tree: children are
// opened with Start and may be created concurrently (the stream workers
// open block spans under one parent). A nil *Span is disabled — Start
// returns nil, End returns 0, and no clock is read.
type Span struct {
	tr       *Tracer
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
	ev       *Events // narrator, inherited by every child at Start
}

// Start opens a child span under s. The child narrates if s does.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	c.ev = s.ev
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// End freezes the span's duration and returns it. The first End wins
// and, on a narrated span, logs its phase_done line; later calls return
// the frozen duration, so `defer sp.End()` composes with early explicit
// Ends.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.tr.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = d
	}
	d, ev := s.dur, s.ev
	s.tr.mu.Unlock()
	if first {
		ev.phaseDone(s.name, d)
	}
	return d
}

// Narrate marks s and every span started under it from now on to log
// through ev: one phase_done line per span, named after the span, when
// it first ends, and the anomalies reported with Anomaly. A nil ev
// silences the subtree again.
func (s *Span) Narrate(ev *Events) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.ev = ev
	s.tr.mu.Unlock()
}

// Anomaly logs an unusual-but-handled condition (matrix widening,
// oversize-group splits, block-size raises, invalid checkpoints) with a
// magnitude through the span's narrator; a no-op unless s narrates.
func (s *Span) Anomaly(kind string, magnitude int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	ev := s.ev
	s.tr.mu.Unlock()
	ev.anomaly(kind, magnitude)
}

// Counter is shorthand for s.Tracer().Counter(name); nil-safe.
func (s *Span) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.tr.Counter(name)
}

// Gauge is shorthand for s.Tracer().Gauge(name); nil-safe.
func (s *Span) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.tr.Gauge(name)
}

// Tracer returns the owning tracer (nil for a disabled span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}
