package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestEventsJSON(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ev := NewEvents(l, "abc123")
	if !ev.Enabled() {
		t.Fatal("live events report disabled")
	}
	ev.RunStart("greedy-ball", 100, 8, 3)
	ev.PhaseStart("matrix")
	ev.PhaseDone("matrix", 5*time.Millisecond)
	ev.Anomaly("matrix_widened", 70000)
	ev.RunError(errors.New("boom"))
	ev.RunDone(42, 10*time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d event lines, want 6:\n%s", len(lines), buf.String())
	}
	wantMsg := []string{"run_start", "phase_start", "phase_done", "anomaly", "run_error", "run_done"}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if rec["msg"] != wantMsg[i] {
			t.Errorf("line %d msg = %v, want %s", i, rec["msg"], wantMsg[i])
		}
		if rec["run_id"] != "abc123" {
			t.Errorf("line %d run_id = %v, want abc123", i, rec["run_id"])
		}
	}
	var start map[string]any
	_ = json.Unmarshal([]byte(lines[0]), &start)
	if start["algo"] != "greedy-ball" || start["n"] != float64(100) || start["k"] != float64(3) {
		t.Errorf("run_start fields wrong: %s", lines[0])
	}
	var anomaly map[string]any
	_ = json.Unmarshal([]byte(lines[3]), &anomaly)
	if anomaly["kind"] != "matrix_widened" || anomaly["magnitude"] != float64(70000) || anomaly["level"] != "WARN" {
		t.Errorf("anomaly fields wrong: %s", lines[3])
	}
}

func TestEventsNilSafety(t *testing.T) {
	if NewEvents(nil, "id") != nil {
		t.Error("NewEvents(nil) returned live events")
	}
	var ev *Events
	if ev.Enabled() {
		t.Error("nil events report enabled")
	}
	// None of these may panic.
	ev.RunStart("a", 1, 2, 3)
	ev.RunDone(0, 0)
	ev.RunError(errors.New("x"))
	ev.PhaseStart("p")
	ev.PhaseDone("p", 0)
	ev.Anomaly("k", 1)
	// RunError with nil error is a no-op even on live events.
	var buf bytes.Buffer
	live := NewEvents(slog.New(slog.NewJSONHandler(&buf, nil)), "id")
	live.RunError(nil)
	if buf.Len() != 0 {
		t.Errorf("RunError(nil) logged: %s", buf.String())
	}
}

func TestNewRunID(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if a == b {
		t.Errorf("consecutive run IDs equal: %s", a)
	}
	if len(a) != 12 {
		t.Errorf("run ID %q length %d, want 12 hex chars", a, len(a))
	}
	for _, c := range a {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Errorf("run ID %q has non-hex char %q", a, c)
		}
	}
}
