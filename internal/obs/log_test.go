package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"strings"
	"testing"
)

func TestEventsJSON(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	ev := NewEvents(l, "abc123")
	ev.RunStart("greedy-ball", 100, 8, 3)
	root := New().Start("anonymize")
	root.Narrate(ev)
	ms := root.Start("algo.distance-matrix")
	ms.Anomaly("matrix_widened", 70000)
	ms.End()
	ms.End() // one phase_done per span
	ev.RunError(errors.New("boom"))
	ev.RunDone(42, root.End())

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("got %d event lines, want 6:\n%s", len(lines), buf.String())
	}
	wantMsg := []string{"run_start", "anomaly", "phase_done", "run_error", "phase_done", "run_done"}
	recs := make([]map[string]any, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if recs[i]["msg"] != wantMsg[i] {
			t.Errorf("line %d msg = %v, want %s", i, recs[i]["msg"], wantMsg[i])
		}
		if recs[i]["run_id"] != "abc123" {
			t.Errorf("line %d run_id = %v, want abc123", i, recs[i]["run_id"])
		}
	}
	if start := recs[0]; start["algo"] != "greedy-ball" || start["n"] != float64(100) || start["k"] != float64(3) {
		t.Errorf("run_start fields wrong: %s", lines[0])
	}
	if a := recs[1]; a["kind"] != "matrix_widened" || a["magnitude"] != float64(70000) || a["level"] != "WARN" {
		t.Errorf("anomaly fields wrong: %s", lines[1])
	}
	for i, phase := range map[int]string{2: "algo.distance-matrix", 4: "anonymize"} {
		if p := recs[i]; p["phase"] != phase || p["level"] != "DEBUG" || p["wall"] == nil {
			t.Errorf("phase_done fields wrong, want phase %s: %s", phase, lines[i])
		}
	}
}

func TestEventsNilSafety(t *testing.T) {
	if NewEvents(nil, "id") != nil {
		t.Error("NewEvents(nil) returned live events")
	}
	var ev *Events
	// None of these may panic.
	ev.RunStart("a", 1, 2, 3)
	ev.RunDone(0, 0)
	ev.RunError(errors.New("x"))
	sp := New().Start("s")
	sp.Narrate(ev)
	sp.Start("c").End()
	sp.Anomaly("k", 1)
	sp.End()
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
