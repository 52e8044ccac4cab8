package server

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/relation"
	"kanon/internal/store"
)

// renderTable flattens a relation table into the header/rows shape the
// manager ingests.
func renderTable(t *relation.Table) (header []string, rows [][]string) {
	header = t.Schema().Names()
	rows = make([][]string, t.Len())
	for i := range rows {
		rows[i] = t.Strings(i)
	}
	return header, rows
}

func openTestStore(t *testing.T) *store.Store {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// waitTerminal polls the manager's read path until the job is terminal:
// how a test follows a job the manager may hold only in the store.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, ok := m.StatusOf(id); ok && st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func shutdownManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRecoverQueuedJob: a queued manifest left behind by a crash is
// re-admitted at startup and runs to the same release a live submission
// produces.
func TestRecoverQueuedJob(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(51))
	header, rows := renderTable(dataset.Census(rng, 60, 4))

	// Simulate the crash's leftovers directly: CreateJob is exactly what
	// a pre-crash Submit persisted.
	man := &store.Manifest{
		ID: "crashed-q", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := st.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Store: st})
	status := waitTerminal(t, m, "crashed-q")
	if status.State != StateSucceeded {
		t.Fatalf("recovered job did not succeed: %+v", status)
	}
	_, resRows, err := m.ResultBytes("crashed-q")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Counters["server.jobs_recovered"]; got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}

	direct, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	if status.Cost == nil || *status.Cost != direct.Cost || len(resRows) != len(direct.Rows) {
		t.Fatalf("recovered run cost/rows %v/%d, direct %d/%d", status.Cost, len(resRows), direct.Cost, len(direct.Rows))
	}
	for i := range direct.Rows {
		for j := range direct.Rows[i] {
			if resRows[i][j] != direct.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, resRows[i][j], direct.Rows[i][j])
			}
		}
	}
}

// TestRecoverCrashedStreamJob: a stream job that crashed mid-run
// restarts from its surviving block checkpoints — the completed blocks
// are replayed (counted by server.blocks_resumed), and the release is
// byte-identical to the uninterrupted run.
func TestRecoverCrashedStreamJob(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(52))
	header, rows := renderTable(dataset.Census(rng, 120, 4))

	// The uninterrupted run, for both the byte-identity baseline and a
	// fully populated checkpoint directory.
	m1 := NewManager(Config{Store: st, JobTimeout: time.Minute, ResultTTL: time.Hour})
	job1, err := m1.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall, BlockRows: 30})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job1)
	want, ok := job1.Result()
	if !ok {
		t.Fatalf("baseline job failed: %+v", job1.Status())
	}
	shutdownManager(t, m1)

	// Rewind the disk to "crashed mid-run": manifest back to running,
	// result spool gone, only the first two block checkpoints surviving.
	man, err := st.ReadManifest(job1.ID)
	if err != nil {
		t.Fatal(err)
	}
	man.State = store.StateRunning
	man.Cost = nil
	man.FinishedAt = nil
	b, err := store.EncodeManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Backend().WriteAtomic("jobs/"+job1.ID+"/manifest.json", b); err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(st.Dir(), "jobs", job1.ID)
	if err := os.Remove(filepath.Join(jobDir, "result.csv")); err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(jobDir, "checkpoints")
	entries, err := os.ReadDir(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, e := range entries {
		// Keep blocks [0,30) and [30,60); drop the rest (both spool files,
		// so the surviving set is internally consistent).
		lo := e.Name()[len("block-") : len("block-")+9]
		if lo != "000000000" && lo != "000000030" {
			if err := os.Remove(filepath.Join(ckptDir, e.Name())); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no checkpoints removed; crash simulation is vacuous")
	}

	m2 := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	status := waitTerminal(t, m2, job1.ID)
	if status.State != StateSucceeded {
		t.Fatalf("recovered job failed: %+v", status)
	}
	if status.Cost == nil || *status.Cost != want.Cost {
		t.Fatalf("resumed cost %v, want %d", status.Cost, want.Cost)
	}
	_, gotRows, err := m2.ResultBytes(job1.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if gotRows[i][j] != want.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, gotRows[i][j], want.Rows[i][j])
			}
		}
	}
	snap := m2.Snapshot()
	if snap.Counters["server.blocks_resumed"] != 2 {
		t.Errorf("blocks_resumed = %d, want 2", snap.Counters["server.blocks_resumed"])
	}
	if snap.Counters["server.jobs_recovered"] != 1 {
		t.Errorf("jobs_recovered = %d, want 1", snap.Counters["server.jobs_recovered"])
	}
}

// TestTerminalJobsSurviveRestart: succeeded and failed manifests are
// reloaded read-only — status and results stay retrievable without
// re-running anything.
func TestTerminalJobsSurviveRestart(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(53))
	header, rows := renderTable(dataset.Census(rng, 40, 4))

	m1 := NewManager(Config{Store: st, JobTimeout: time.Minute, ResultTTL: time.Hour})
	job, err := m1.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	want, ok := job.Result()
	if !ok {
		t.Fatalf("job failed: %+v", job.Status())
	}
	shutdownManager(t, m1)

	// A failed job alongside it, injected as a crashed process would have
	// left it.
	fman := &store.Manifest{
		ID: "failed-1", State: store.StateFailed, K: 2, Algo: "ball",
		Rows: len(rows), Cols: len(header), Error: "deadline exceeded",
		SubmittedAt: time.Now().UTC(),
	}
	fin := time.Now().UTC()
	fman.FinishedAt = &fin
	if err := st.CreateJob(fman, header, rows); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	status, ok := m2.StatusOf(job.ID)
	if !ok {
		t.Fatal("succeeded job gone after restart")
	}
	if status.State != StateSucceeded || status.Cost == nil || *status.Cost != want.Cost {
		t.Fatalf("reloaded status %+v, want succeeded with cost %d", status, want.Cost)
	}
	if status.Rows != len(rows) || status.Cols != len(header) {
		t.Errorf("reloaded shape %dx%d, want %dx%d", status.Rows, status.Cols, len(rows), len(header))
	}
	_, resRows, err := m2.ResultBytes(job.ID)
	if err != nil || len(resRows) != len(want.Rows) {
		t.Fatalf("reloaded result unavailable or truncated")
	}
	s, ok := m2.StatusOf("failed-1")
	if !ok {
		t.Fatal("failed job gone after restart")
	}
	if s.State != StateFailed || s.Error != "deadline exceeded" {
		t.Fatalf("failed job status %+v", s)
	}
	// Recovered terminal jobs must not be re-run or re-counted.
	if got := m2.Snapshot().Counters["server.jobs_recovered"]; got != 0 {
		t.Errorf("jobs_recovered = %d, want 0", got)
	}
}

// TestLifecyclePersisted: every state transition lands on disk — the
// manifest tracks queued → running → succeeded, and a successful job's
// result spool is readable and matches what the API serves.
func TestLifecyclePersisted(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(55))
	header, rows := renderTable(dataset.Census(rng, 30, 3))

	m := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	res, ok := job.Result()
	if !ok {
		t.Fatalf("job failed: %+v", job.Status())
	}

	man, err := st.ReadManifest(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != store.StateSucceeded {
		t.Errorf("persisted state %q", man.State)
	}
	if man.Cost == nil || *man.Cost != res.Cost {
		t.Errorf("persisted cost %v, want %d", man.Cost, res.Cost)
	}
	if man.StartedAt == nil || man.FinishedAt == nil {
		t.Errorf("persisted timestamps missing: %+v", man)
	}
	_, spooled, err := st.ReadResult(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(spooled) != len(res.Rows) {
		t.Fatalf("spooled %d rows, served %d", len(spooled), len(res.Rows))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if spooled[i][j] != res.Rows[i][j] {
				t.Fatalf("spooled cell (%d,%d): %q, want %q", i, j, spooled[i][j], res.Rows[i][j])
			}
		}
	}
}

// TestJanitorReapsDirectories: once a terminal job's TTL expires, its
// directory is deleted along with its in-memory record.
func TestJanitorReapsDirectories(t *testing.T) {
	st := openTestStore(t)
	rng := rand.New(rand.NewSource(56))
	header, rows := renderTable(dataset.Census(rng, 20, 3))

	m := newTestManager(t, Config{Store: st, ResultTTL: 40 * time.Millisecond})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	dir := filepath.Join(st.Dir(), "jobs", job.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, inMem := m.Get(job.ID)
		_, statErr := os.Stat(dir)
		if !inMem && os.IsNotExist(statErr) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not reaped: in-memory=%v, dir err=%v", inMem, statErr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRestartReclaimsOwnLease: a job still leased under this node's ID
// was running in an earlier run of the process. A fresh manager takes
// it back on its first claim scan, not one LeaseTTL later, and runs it
// to the release a direct run produces.
func TestRestartReclaimsOwnLease(t *testing.T) {
	st := openTestStore(t)
	header, rows, direct := smallInstance(t, 57)
	man := &store.Manifest{
		ID: "mine-r", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := st.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	// The earlier run claimed it under a lease that stays live for an hour.
	if _, _, err := st.ClaimJob("mine-r", localNode, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	m := newTestManager(t, Config{Store: st, LeaseTTL: time.Hour, ClaimInterval: 2 * time.Second})
	status := waitTerminal(t, m, "mine-r")
	if status.State != StateSucceeded || status.Node != localNode {
		t.Fatalf("reclaimed job: %+v, want succeeded on %s", status, localNode)
	}
	if status.StartedAt == nil || status.StartedAt.Sub(start) >= 2*time.Second {
		t.Fatalf("reclaimed at %v, %v after start: not within one claim interval", status.StartedAt, status.StartedAt.Sub(start))
	}
	got, err := st.ReadManifest("mine-r")
	if err != nil || got.Fence != 2 {
		t.Fatalf("manifest after reclaim: %+v %v, want fence 2", got, err)
	}
	h, r, err := m.ResultBytes("mine-r")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelease(t, h, r, direct)
	if n := m.Snapshot().Counters["server.jobs_recovered"]; n != 1 {
		t.Errorf("jobs_recovered = %d, want 1", n)
	}
}

// TestShutdownReleasesDurableJob: a drain deadline that fires while a
// durable single node runs a job releases the job back to the queue
// instead of cancelling it, and a manager restarted on the same store
// finishes it, byte-identically to an uninterrupted run.
func TestShutdownReleasesDurableJob(t *testing.T) {
	st := openTestStore(t)
	header, rows := slowInstance(t)
	req := JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, BlockRows: 500, Refine: true}

	m1 := NewManager(Config{Store: st, Workers: 1, JobTimeout: time.Minute, ResultTTL: time.Hour})
	job, err := m1.Submit(header, rows, req)
	if err != nil {
		t.Fatal(err)
	}
	waitManifestState(t, st, job.ID, store.StateRunning)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain budget already spent
	if err := m1.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with expired deadline returned nil")
	}
	man := waitManifestState(t, st, job.ID, store.StateQueued)
	if man.Claim != nil || man.Error != "" {
		t.Fatalf("released manifest %+v claim %+v, want queued with no lease or error", man, man.Claim)
	}
	if n := m1.Snapshot().Counters["server.leases_released"]; n != 1 {
		t.Errorf("leases_released = %d, want 1", n)
	}

	m2 := newTestManager(t, Config{Store: st, ResultTTL: time.Hour})
	if status := waitTerminal(t, m2, job.ID); status.State != StateSucceeded {
		t.Fatalf("restarted job: %+v", status)
	}
	h, r, err := m2.ResultBytes(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := kanon.AnonymizeBlocks(context.Background(), header, rows, req.K, req.BlockRows,
		&kanon.Options{Refine: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelease(t, h, r, want)
}
