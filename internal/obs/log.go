package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// Events is the structured event log of one run, emitted through a
// caller-supplied *slog.Logger (typically a JSON handler) with the run
// ID attached to every record. The facade logs the run's boundaries
// (run_start, run_done, run_error) itself; everything else reaches the
// log through the spans: a span subtree marked with Span.Narrate logs
// one phase_done per span end, at Debug, and the hand-written anomalies
// through Span.Anomaly, at Warn. Spans measure and narrate; Events only
// formats. It follows the tracer's contract: a nil *Events is
// disabled, every method on it is a nil-check no-op with fixed
// (non-variadic) arguments, so the disabled path performs zero
// allocations and the released output is byte-identical with logging
// on or off.
type Events struct {
	l *slog.Logger
}

// NewEvents wraps the logger with the run ID baked into every record.
// A nil logger yields a nil (disabled) Events.
func NewEvents(l *slog.Logger, runID string) *Events {
	if l == nil {
		return nil
	}
	return &Events{l: l.With(slog.String("run_id", runID))}
}

// runSeq disambiguates run IDs minted in the same process.
var runSeq atomic.Int64

// NewRunID mints a short unique run identifier: 6 random bytes hex,
// falling back to a time+sequence form if the system randomness source
// fails. Run IDs label telemetry only — they never influence results.
func NewRunID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x-%d", time.Now().UnixNano(), runSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// RunStart records the run's shape: algorithm, rows, columns, k.
func (e *Events) RunStart(algo string, n, m, k int) {
	if e == nil {
		return
	}
	e.l.LogAttrs(context.Background(), slog.LevelInfo, "run_start",
		slog.String("algo", algo), slog.Int("n", n), slog.Int("m", m), slog.Int("k", k))
}

// RunDone records the run's outcome and total wall time.
func (e *Events) RunDone(cost int, d time.Duration) {
	if e == nil {
		return
	}
	e.l.LogAttrs(context.Background(), slog.LevelInfo, "run_done",
		slog.Int("cost", cost), slog.Duration("wall", d))
}

// RunError records a failed run.
func (e *Events) RunError(err error) {
	if e == nil || err == nil {
		return
	}
	e.l.LogAttrs(context.Background(), slog.LevelError, "run_error",
		slog.String("error", err.Error()))
}

// phaseDone records a narrated span's end: the span name as the phase
// and its frozen duration.
func (e *Events) phaseDone(phase string, d time.Duration) {
	if e == nil {
		return
	}
	e.l.LogAttrs(context.Background(), slog.LevelDebug, "phase_done",
		slog.String("phase", phase), slog.Duration("wall", d))
}

// anomaly records an unusual-but-handled condition with a magnitude.
func (e *Events) anomaly(kind string, magnitude int64) {
	if e == nil {
		return
	}
	e.l.LogAttrs(context.Background(), slog.LevelWarn, "anomaly",
		slog.String("kind", kind), slog.Int64("magnitude", magnitude))
}
