package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// edgeKey is the tuple a job's slog line and its journal event must
// agree on.
func edgeKey(event, node string, fence uint64, phase, detail string) string {
	return fmt.Sprintf("%s|%s|%d|%s|%s", event, node, fence, phase, detail)
}

// loggedEdges parses a JSON log into its lifecycle lines, as multisets
// of edge keys by run_id. The compute's own phase_done lines share an
// event name but carry the run ID the facade mints, so no job claims
// them.
func loggedEdges(t *testing.T, log string) map[string]map[string]int {
	t.Helper()
	edges := make(map[string]map[string]int)
	for _, ln := range strings.Split(strings.TrimSpace(log), "\n") {
		var l struct {
			Msg    string `json:"msg"`
			RunID  string `json:"run_id"`
			Node   string `json:"node"`
			Fence  uint64 `json:"fence"`
			Phase  string `json:"phase"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(ln), &l); err != nil {
			t.Fatalf("log line %q: %v", ln, err)
		}
		if _, ok := lifecycle[l.Msg]; !ok {
			continue
		}
		if edges[l.RunID] == nil {
			edges[l.RunID] = make(map[string]int)
		}
		edges[l.RunID][edgeKey(l.Msg, l.Node, l.Fence, l.Phase, l.Detail)]++
	}
	return edges
}

// TestLifecycleRecordsAgree: every lifecycle edge of every job is one
// record, so its slog lines equal its journal events and each table
// counter equals the number of its events. The jobs cover a whole-table
// success, a 2-worker block job with checkpoints, a cancel while
// running, a cancel while queued (repeated), an unrunnable claim and a
// steal.
func TestLifecycleRecordsAgree(t *testing.T) {
	dir := t.TempDir()
	probe := openStoreAt(t, dir)
	header, rows, _ := smallInstance(t, 91)
	// Before the node starts: a job whose request spool is gone, and one
	// left under a dead node's expired lease.
	old := time.Now().Add(-time.Minute).UTC()
	for _, id := range []string{"hollow", "orphan"} {
		man := &store.Manifest{ID: id, State: store.StateQueued, K: 3, Algo: "ball",
			Rows: len(rows), Cols: len(header), SubmittedAt: old}
		if err := probe.CreateJob(man, header, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, "jobs", "hollow", "request.csv")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.ClaimJob("orphan", "dead-node", time.Second, old); err != nil {
		t.Fatal(err)
	}

	var logs lockedBuffer
	m := newClusterManager(t, dir, "node-a", func(c *Config) {
		c.Workers = 1
		c.LeaseTTL = 300 * time.Millisecond
		c.Log = slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	})
	submitWait := func(h []string, r [][]string, req JobRequest) string {
		t.Helper()
		job, err := m.Submit(h, r, req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.State != StateSucceeded {
			t.Fatalf("job %s: %s %s", job.ID, st.State, st.Error)
		}
		return job.ID
	}
	whole := submitWait(header, rows, JobRequest{K: 3})
	bh, br := renderTable(dataset.Census(rand.New(rand.NewSource(92)), 120, 4))
	block := submitWait(bh, br, JobRequest{K: 3, BlockRows: 30, Workers: 2})

	running, err := m.Submit([]string{"a", "b", "c", "d"}, slowRows(), JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, running.ID)
	// The only worker is busy, so this one stays queued.
	queued, err := m.Submit(header, rows, JobRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st, ok := m.CancelByID(queued.ID); !ok || st.State != StateCanceled {
			t.Fatalf("queued cancel %d: %+v ok=%v", i, st, ok)
		}
	}
	// Hold the running job through a lease renewal before cancelling it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		events, _ := m.EventsOf(running.ID)
		if eventIndex(events, obs.EvLeaseRenewed) >= 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no lease renewal journaled: %+v", events)
		}
		time.Sleep(10 * time.Millisecond)
	}
	m.CancelByID(running.ID)
	waitDone(t, running)
	// Drained, the node has made its last record.
	shutdownManager(t, m)

	ids := []string{"hollow", "orphan", whole, block, running.ID, queued.ID}
	logged := loggedEdges(t, logs.String())
	counts := make(map[string]int64)
	for _, id := range ids {
		events, ok := m.EventsOf(id)
		if !ok || len(events) == 0 {
			t.Fatalf("job %s: no journal", id)
		}
		journal := make(map[string]int)
		for _, e := range events {
			journal[edgeKey(e.Event, e.Node, e.Fence, e.Phase, e.Detail)]++
			counts[e.Event]++
			want := "node-a"
			if e.Event == obs.EvLeaseExpired {
				want = "dead-node"
			}
			if e.Node != want {
				t.Errorf("job %s: %s recorded by %q, want %q", id, e.Event, e.Node, want)
			}
		}
		if !maps.Equal(journal, logged[id]) {
			t.Errorf("job %s: slog lines %v, journal %v", id, logged[id], journal)
		}
	}
	for _, ev := range []string{obs.EvSubmitted, obs.EvClaimed, obs.EvLeaseRenewed, obs.EvLeaseExpired,
		obs.EvLeaseStolen, obs.EvCheckpointCommitted, obs.EvPhaseBegin, obs.EvPhaseEnd,
		obs.EvCancelRequested, obs.EvCanceled, obs.EvSucceeded, obs.EvFailed} {
		if counts[ev] == 0 {
			t.Errorf("no %s event: the scenario lost an edge", ev)
		}
	}
	if counts[obs.EvCanceled] != 2 {
		t.Errorf("%d canceled events, want 2 (one per cancelled job)", counts[obs.EvCanceled])
	}
	snap := m.Snapshot()
	for ev, ed := range lifecycle {
		if ed.counter == "" {
			continue
		}
		if got, ok := snap.Counters[ed.counter]; !ok || got != counts[ev] {
			t.Errorf("%s = %d (registered %v), want %d %s events", ed.counter, got, ok, counts[ev], ev)
		}
	}
	if strings.Contains(logs.String(), "journal_append_failed") {
		t.Error("a journal append failed")
	}
}

// journalFailBackend is an in-memory store on which every journal
// append fails.
type journalFailBackend struct{ *store.Memory }

func (b journalFailBackend) WriteAtomic(rel string, data []byte) error {
	if path.Base(rel) == "events.jsonl" {
		return errors.New("disk full")
	}
	return b.Memory.WriteAtomic(rel, data)
}

// TestLifecycleSurvivesFailedAppend: a journal that cannot be written
// never fails the job. The failure is logged, and the edges are still
// logged and counted.
func TestLifecycleSurvivesFailedAppend(t *testing.T) {
	st, err := store.OpenBackend(journalFailBackend{store.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	m := newTestManager(t, Config{Workers: 1, Store: st, Log: slog.New(slog.NewJSONHandler(&logs, nil))})
	header, rows, direct := smallInstance(t, 93)
	job, err := m.Submit(header, rows, JobRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res, ok := job.Result()
	if !ok {
		t.Fatalf("job did not succeed: %+v", job.Status())
	}
	assertSameRelease(t, res.Header, res.Rows, direct)
	if events, _ := m.EventsOf(job.ID); len(events) != 0 {
		t.Errorf("journal holds %d events on a backend that refuses appends", len(events))
	}
	out := logs.String()
	for _, msg := range []string{"journal_append_failed", obs.EvSubmitted, obs.EvSucceeded} {
		if !strings.Contains(out, `"msg":"`+msg+`"`) {
			t.Errorf("no %s line in the log", msg)
		}
	}
	if n := m.Snapshot().Counters["server.jobs_succeeded"]; n != 1 {
		t.Errorf("jobs_succeeded = %d, want 1", n)
	}
}

// TestRepeatedCancelJournalsOnce: DELETEs of a job that is already
// cancelled change nothing, so they journal nothing and count nothing.
func TestRepeatedCancelJournalsOnce(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Store: openTestStore(t)})
	st, resp := submit(t, ts, "k=2&algo=exact", slowCSV())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	pollUntil(t, ts, st.ID, 5*time.Second, func(s Status) bool { return s.State == StateRunning })
	del := func() {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, dr.Body)
		dr.Body.Close()
	}
	del()
	if done := pollUntil(t, ts, st.ID, 5*time.Second, func(s Status) bool { return s.State.Terminal() }); done.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", done.State)
	}
	del()
	del()

	var events []obs.JournalEvent
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/events", &events); code != http.StatusOK {
		t.Fatalf("GET events: %d", code)
	}
	canceled := 0
	for _, e := range events {
		if e.Event == obs.EvCanceled {
			canceled++
		}
	}
	if canceled != 1 {
		t.Errorf("%d canceled events, want 1: %+v", canceled, events)
	}
	if n := srv.Manager().Snapshot().Counters["server.jobs_canceled"]; n != 1 {
		t.Errorf("jobs_canceled = %d, want 1", n)
	}
}
