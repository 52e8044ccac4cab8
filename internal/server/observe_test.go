package server

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"path"
	"strings"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// getJSON fetches url and decodes the body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// eventIndex returns the position of the first event with the given
// name, or -1.
func eventIndex(events []obs.JournalEvent, name string) int {
	for i, e := range events {
		if e.Event == name {
			return i
		}
	}
	return -1
}

// TestJournalLifecycleSingleNode: a store-backed job's journal narrates
// the whole lifecycle in order — submitted, claimed, phase, checkpoint
// commits (block streaming), terminal — and both read APIs serve it.
func TestJournalLifecycleSingleNode(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st})
	jobSt, _ := submit(t, ts, "k=2&block=2", sampleCSV)
	pollUntil(t, ts, jobSt.ID, 30e9, func(s Status) bool { return s.State == StateSucceeded })

	var events []obs.JournalEvent
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jobSt.ID+"/events", &events); code != http.StatusOK {
		t.Fatalf("GET events: %d", code)
	}
	order := []string{
		obs.EvSubmitted, obs.EvClaimed, obs.EvPhaseBegin,
		obs.EvCheckpointCommitted, obs.EvPhaseEnd, obs.EvSucceeded,
	}
	last := -1
	for _, name := range order {
		i := eventIndex(events, name)
		if i < 0 {
			t.Fatalf("journal missing %q: %+v", name, events)
		}
		if i < last {
			t.Fatalf("journal out of order: %q at %d after index %d: %+v", name, i, last, events)
		}
		last = i
	}

	var snap obs.Snapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jobSt.ID+"/trace", &snap); code != http.StatusOK {
		t.Fatalf("GET trace: %d", code)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "job" {
		t.Fatalf("trace roots = %+v, want one root named job", snap.Spans)
	}
	if snap.Spans[0].WallNS == 0 || snap.Spans[0].DurNS <= 0 {
		t.Errorf("root span not wall-anchored or empty: %+v", snap.Spans[0])
	}

	// Unknown IDs are 404 on both endpoints.
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/events", nil); code != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Errorf("trace for unknown job: %d, want 404", code)
	}
}

// TestEventsWithoutStore: a server without a configured store runs its
// jobs on the in-memory store, so both endpoints narrate them like on
// a durable node — the journal from submitted through succeeded, and a
// trace with one root span named job.
func TestEventsWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	jobSt, _ := submit(t, ts, "k=2", sampleCSV)
	pollUntil(t, ts, jobSt.ID, 30e9, func(s Status) bool { return s.State == StateSucceeded })

	var events []obs.JournalEvent
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jobSt.ID+"/events", &events); code != http.StatusOK {
		t.Fatalf("events without store: %d, want 200", code)
	}
	if len(events) == 0 || events[0].Event != obs.EvSubmitted || events[len(events)-1].Event != obs.EvSucceeded {
		t.Errorf("events without store = %+v, want submitted through succeeded", events)
	}
	var snap obs.Snapshot
	if code := getJSON(t, ts.URL+"/v1/jobs/"+jobSt.ID+"/trace", &snap); code != http.StatusOK {
		t.Errorf("trace without store: %d, want 200", code)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "job" {
		t.Errorf("trace without store roots = %+v, want one root named job", snap.Spans)
	}
}

// TestJobsLogRunAtInfo: at kanond's default Info level, a whole-table
// job and a block job each log the compute's run_start and run_done,
// and no phase_done line: the narrated span ends and the job's own
// phase edges are Debug.
func TestJobsLogRunAtInfo(t *testing.T) {
	header, rows, _ := smallInstance(t, 93)
	for _, req := range []JobRequest{{K: 3}, {K: 3, BlockRows: 20}} {
		var logs lockedBuffer
		m := newTestManager(t, Config{Workers: 1, Log: slog.New(slog.NewJSONHandler(&logs, nil))})
		job, err := m.Submit(header, rows, req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.State != StateSucceeded {
			t.Fatalf("block=%d: %s %s", req.BlockRows, st.State, st.Error)
		}
		msgs := map[string]int{}
		for _, ln := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			var l struct{ Msg string }
			if err := json.Unmarshal([]byte(ln), &l); err != nil {
				t.Fatalf("log line %q: %v", ln, err)
			}
			msgs[l.Msg]++
		}
		if msgs["run_start"] != 1 || msgs["run_done"] != 1 || msgs["phase_done"] != 0 {
			t.Errorf("block=%d: logged %v, want one run_start, one run_done and no phase_done", req.BlockRows, msgs)
		}
	}
}

// TestCanceledJobJournalsTerminalEvent: cancellation lands in the
// journal as cancel_requested (or a direct canceled for queued jobs)
// followed by the canceled terminal event.
func TestCanceledJobJournalsTerminalEvent(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := newTestManager(t, Config{Workers: 1, Store: st})
	job, err := m.Submit([]string{"a", "b", "c", "d"}, slowRows(), JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, job.ID)
	if _, ok := m.CancelByID(job.ID); !ok {
		t.Fatal("cancel refused")
	}
	<-job.Done()
	events, ok := m.EventsOf(job.ID)
	if !ok {
		t.Fatal("EventsOf lost the job")
	}
	if eventIndex(events, obs.EvCanceled) < 0 {
		t.Fatalf("journal missing canceled event: %+v", events)
	}
}

// TestObservabilityPreservesReleaseBytes pins determinism: the same
// instance run with full journaling/trace persistence and with none
// releases cell-identical bytes — observability watches the compute, it
// never alters it.
func TestObservabilityPreservesReleaseBytes(t *testing.T) {
	header, rows, direct := smallInstance(t, 83)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 1},            // journaling off: no store
		{Workers: 1, Store: st}, // journaling + trace persistence on
	} {
		m := newTestManager(t, cfg)
		job, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		res, ok := job.Result()
		if !ok {
			t.Fatalf("job did not succeed: %+v", job.Status())
		}
		assertSameRelease(t, res.Header, res.Rows, direct)
	}
}

// slowRows builds the 22-row pairwise-distinct exact-solver instance
// from slowCSV as parsed rows.
func slowRows() [][]string {
	lines := strings.Split(strings.TrimSpace(slowCSV()), "\n")
	rows := make([][]string, 0, len(lines)-1)
	for _, l := range lines[1:] {
		rows = append(rows, strings.Split(l, ","))
	}
	return rows
}

// waitRunning polls the manager until the job reports running.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := m.StatusOf(id); ok && st.State == StateRunning {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// traceFirstBackend is store.Local with one crash-ordering invariant
// enforced: a block's commit marker (checkpoints/*.stat.json) may be
// written only once the job's trace.json exists and holds a root span.
// A node killed right after a commit then always leaves its trace
// segment behind, whatever the kill timing.
type traceFirstBackend struct {
	*store.Local
	markers int
}

func (b *traceFirstBackend) WriteAtomic(rel string, data []byte) error {
	dir, file := path.Split(rel)
	if path.Base(dir) == "checkpoints" && strings.HasSuffix(file, ".stat.json") {
		tb, err := b.ReadFile(path.Join(path.Dir(path.Dir(rel)), "trace.json"))
		if err != nil {
			return fmt.Errorf("commit marker %s before the trace: %w", rel, err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(tb, &snap); err != nil || len(snap.Spans) == 0 {
			return fmt.Errorf("commit marker %s before a trace with a root span (%v)", rel, err)
		}
		b.markers++
	}
	return b.Local.WriteAtomic(rel, data)
}

// TestCheckpointCommitFollowsTrace: every block commit of a durable
// stream job lands after the trace flush that names its runner.
func TestCheckpointCommitFollowsTrace(t *testing.T) {
	local, err := store.NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	be := &traceFirstBackend{Local: local}
	st, err := store.OpenBackend(be)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := renderTable(dataset.Census(rand.New(rand.NewSource(54)), 120, 4))
	m := newTestManager(t, Config{Store: st, Workers: 1})
	job, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall, BlockRows: 30, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if s := job.Status(); s.State != StateSucceeded {
		t.Fatalf("job %s: %s", s.State, s.Error)
	}
	if be.markers != 4 {
		t.Errorf("%d block commits, want 4", be.markers)
	}
}
