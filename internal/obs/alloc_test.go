package obs

import (
	"testing"
	"time"
)

// TestDisabledInstrumentsAllocateNothing extends the zero-allocation
// pin to the telemetry-export instruments: a nil Histogram, Progress,
// and Events, and a nil span's narration, must cost a nil check and
// nothing else.
func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var h *Histogram
	var p *Progress
	var ev *Events
	var sp *Span
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(42)
		h.ObserveDuration(time.Millisecond)
		_ = h.Count()
		_ = h.Sum()
		p.SetTotal(10)
		p.Add(1)
		ev.RunStart("a", 1, 2, 3)
		sp.Narrate(ev)
		sp.Anomaly("k", 7)
		_ = sp.End()
		ev.RunDone(0, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("disabled instruments allocate %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkDisabledInstruments is the CI allocation guard: run with
// -benchmem, the disabled paths must report 0 B/op and 0 allocs/op.
func BenchmarkDisabledInstruments(b *testing.B) {
	var tr *Tracer
	var h *Histogram
	var p *Progress
	var ev *Events
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("x")
		h.Observe(int64(i))
		p.Add(1)
		sp.Narrate(ev)
		sp.Anomaly("k", 7)
		sp.End()
	}
}

// BenchmarkHistogramObserve measures the enabled hot path (two atomic
// adds and one atomic bucket increment — and 0 allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
