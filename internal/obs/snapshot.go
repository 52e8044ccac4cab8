package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Snapshot is a tracer's state frozen into plain serializable data: the
// span tree plus the counter and gauge registries. It is the type the
// public facade returns (kanon.Result.Stats) and what the CLIs render
// as a phase tree or emit as JSON. encoding/json sorts map keys, so the
// serialized form is deterministic for a given run.
type Snapshot struct {
	// Node identifies the process the snapshot came from (the kanond
	// node ID), so an aggregator scraping /debug/obs can label each
	// node's series without a second probe. Empty outside cluster mode.
	Node       string                   `json:"node,omitempty"`
	Spans      []SpanSnapshot           `json:"spans,omitempty"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeStat     `json:"gauges,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
	Progress   map[string]ProgressStat  `json:"progress,omitempty"`
}

// SpanSnapshot is one frozen span. StartNS is the offset from the
// parent span's start (0 for roots), DurNS the measured duration; both
// are integer nanoseconds so JSON round-trips exactly. WallNS anchors
// the span to the wall clock (UnixNano at start) so timelines recorded
// by different processes — a job's segments before and after a lease
// steal — can be ordered against each other; within one process,
// StartNS offsets (monotonic clock) remain the precise ordering.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	WallNS   int64          `json:"wall_ns,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// GaugeStat is a frozen gauge: its final value and high-water mark.
type GaugeStat struct {
	Last int64 `json:"last"`
	Max  int64 `json:"max"`
}

// Snapshot freezes the tracer's current state. Unfinished spans are
// reported with their duration so far; the tracer remains usable (the
// debug endpoints poll it mid-run). Returns nil on a nil tracer.
func (t *Tracer) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := &Snapshot{}
	for _, r := range t.roots {
		// One time.Now() per root, taken under the lock: a now captured
		// before the lock lags by however long acquisition stalled, which
		// made an unfinished span's DurNS shrink between polls.
		snap.Spans = append(snap.Spans, snapSpan(r, r.start, time.Now()))
	}
	now := time.Now()
	if len(t.counters) > 0 {
		snap.Counters = make(map[string]int64, len(t.counters))
		for name, c := range t.counters {
			snap.Counters[name] = c.Load()
		}
	}
	if len(t.gauges) > 0 {
		snap.Gauges = make(map[string]GaugeStat, len(t.gauges))
		for name, g := range t.gauges {
			snap.Gauges[name] = GaugeStat{Last: g.Load(), Max: g.Max()}
		}
	}
	if len(t.histograms) > 0 {
		snap.Histograms = make(map[string]HistogramStat, len(t.histograms))
		for name, h := range t.histograms {
			snap.Histograms[name] = h.stat()
		}
	}
	if len(t.progress) > 0 {
		snap.Progress = make(map[string]ProgressStat, len(t.progress))
		for name, p := range t.progress {
			snap.Progress[name] = p.stat(now)
		}
	}
	return snap
}

// snapSpan freezes s relative to parentStart; caller holds t.mu (child
// lists are only mutated under it).
func snapSpan(s *Span, parentStart, now time.Time) SpanSnapshot {
	d := s.dur
	if !s.ended {
		d = now.Sub(s.start)
	}
	out := SpanSnapshot{
		Name:    s.name,
		StartNS: s.start.Sub(parentStart).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
		WallNS:  s.start.UnixNano(),
	}
	for _, c := range s.children {
		out.Children = append(out.Children, snapSpan(c, s.start, now))
	}
	sort.SliceStable(out.Children, func(a, b int) bool {
		return out.Children[a].StartNS < out.Children[b].StartNS
	})
	return out
}

// Merge folds other into s. Counters sum; gauges keep the larger max
// and other's last value; histograms merge bucket-wise; progress keeps
// the furthest state. Span roots from other are appended and the
// combined roots ordered by wall-clock anchor, so the two segments of a
// stolen job — recorded by different processes whose monotonic clocks
// don't compare — stitch into one chronological timeline. Used by the
// server to stitch cross-node job traces and by WritePrometheusNodes
// to fold repeated scrapes of one node.
func (s *Snapshot) Merge(other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	if len(other.Spans) > 0 {
		s.Spans = append(s.Spans, other.Spans...)
		sort.SliceStable(s.Spans, func(a, b int) bool {
			return s.Spans[a].WallNS < s.Spans[b].WallNS
		})
	}
	if len(other.Counters) > 0 && s.Counters == nil {
		s.Counters = make(map[string]int64, len(other.Counters))
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	if len(other.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = make(map[string]GaugeStat, len(other.Gauges))
	}
	for name, g := range other.Gauges {
		cur, ok := s.Gauges[name]
		if !ok {
			s.Gauges[name] = g
			continue
		}
		if g.Max > cur.Max {
			cur.Max = g.Max
		}
		cur.Last = g.Last
		s.Gauges[name] = cur
	}
	if len(other.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = make(map[string]HistogramStat, len(other.Histograms))
	}
	for name, h := range other.Histograms {
		cur := s.Histograms[name]
		cur.Merge(h)
		s.Histograms[name] = cur
	}
	if len(other.Progress) > 0 && s.Progress == nil {
		s.Progress = make(map[string]ProgressStat, len(other.Progress))
	}
	for name, p := range other.Progress {
		cur, ok := s.Progress[name]
		if !ok {
			s.Progress[name] = p
			continue
		}
		// Two views of the same pass, not two passes: keep the furthest
		// state rather than summing.
		if p.Done > cur.Done {
			cur.Done = p.Done
		}
		if p.Total > cur.Total {
			cur.Total = p.Total
		}
		if p.ElapsedNS > cur.ElapsedNS {
			cur.ElapsedNS = p.ElapsedNS
		}
		s.Progress[name] = cur
	}
}

// WriteTree renders the snapshot as a human-readable phase tree —
// span durations with percent-of-root — followed by the counter and
// gauge registries in sorted order.
func (s *Snapshot) WriteTree(w io.Writer) error {
	if s == nil {
		_, err := io.WriteString(w, "(no trace)\n")
		return err
	}
	var b strings.Builder
	for _, root := range s.Spans {
		rootNS := root.DurNS
		if rootNS <= 0 {
			rootNS = 1 // avoid division by zero on empty spans
		}
		writeSpan(&b, root, "", "", rootNS)
	}
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, name := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, name := range sortedKeys(s.Gauges) {
			g := s.Gauges[name]
			fmt.Fprintf(&b, "  %-36s %d (max %d)\n", name, g.Last, g.Max)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, name := range sortedKeys(s.Histograms) {
			h := s.Histograms[name]
			fmt.Fprintf(&b, "  %-36s n=%d mean=%.1f p50≤%d p99≤%d\n",
				name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
		}
	}
	if len(s.Progress) > 0 {
		b.WriteString("progress:\n")
		for _, name := range sortedKeys(s.Progress) {
			p := s.Progress[name]
			fmt.Fprintf(&b, "  %-36s %d/%d (%.0f%%)\n", name, p.Done, p.Total, 100*p.Fraction())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSpan renders one span line and recurses with box-drawing
// prefixes; pct is relative to rootNS.
func writeSpan(b *strings.Builder, sp SpanSnapshot, prefix, childPrefix string, rootNS int64) {
	pct := 100 * float64(sp.DurNS) / float64(rootNS)
	label := prefix + sp.Name
	fmt.Fprintf(b, "%-44s %10s %6.1f%%\n", label, fmtDur(time.Duration(sp.DurNS)), pct)
	for i, c := range sp.Children {
		last := i == len(sp.Children)-1
		branch, cont := "├─ ", "│  "
		if last {
			branch, cont = "└─ ", "   "
		}
		writeSpan(b, c, childPrefix+branch, childPrefix+cont, rootNS)
	}
}

// fmtDur formats a duration for the tree at a stable width.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
