package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kanon"
	"kanon/internal/dataset"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// openStoreAt opens an independent store handle on dir — each cluster
// manager gets its own, the way separate kanond processes would.
func openStoreAt(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newClusterManager builds a cluster-mode manager on dir under node.
func newClusterManager(t *testing.T, dir, node string, mut func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Store:      openStoreAt(t, dir),
		NodeID:     node,
		Workers:    2,
		JobTimeout: time.Minute,
		ResultTTL:  time.Minute,
		Log:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if mut != nil {
		mut(&cfg)
	}
	return newTestManager(t, cfg)
}

// waitManifestState polls the store until the job's manifest reaches
// the wanted state.
func waitManifestState(t *testing.T, st *store.Store, id, state string) *store.Manifest {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		if m, err := st.ReadManifest(id); err == nil {
			if m.State == state {
				return m
			}
			last = m.State
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q (last seen %q)", id, state, last)
	return nil
}

// smallInstance is a quick deterministic workload with a known direct
// (single-node CLI) release to compare against.
func smallInstance(t *testing.T, seed int64) (header []string, rows [][]string, direct *kanon.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	header, rows = renderTable(dataset.Census(rng, 60, 4))
	direct, err := kanon.Anonymize(header, rows, 3, &kanon.Options{Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	return header, rows, direct
}

// slowInstance is a workload big enough that a test can reliably act
// on the job while it is still running: a ball+refine job on it runs
// for about half a second on a 2-vCPU host, several renewal ticks of a
// 300 ms lease.
func slowInstance(t *testing.T) (header []string, rows [][]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	header, rows = renderTable(dataset.Census(rng, 4000, 6))
	return header, rows
}

// assertSameRelease fails unless the served CSV matches the direct run
// cell for cell — the cluster must not change a single byte.
func assertSameRelease(t *testing.T, header []string, rows [][]string, want *kanon.Result) {
	t.Helper()
	if len(rows) != len(want.Rows) {
		t.Fatalf("release has %d rows, want %d", len(rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if rows[i][j] != want.Rows[i][j] {
				t.Fatalf("cell (%d,%d): %q, want %q", i, j, rows[i][j], want.Rows[i][j])
			}
		}
	}
	for i := range want.Header {
		if header[i] != want.Header[i] {
			t.Fatalf("header[%d]: %q, want %q", i, header[i], want.Header[i])
		}
	}
}

// TestClusterForeignClaimAndReadThrough: two nodes share one data dir;
// a job submitted through one node's API is drained by the cluster, and
// BOTH nodes serve its status and byte-identical result afterwards —
// including the one that never touched it.
func TestClusterForeignClaimAndReadThrough(t *testing.T) {
	dir := t.TempDir()
	header, rows, direct := smallInstance(t, 61)
	probe := openStoreAt(t, dir)

	mA := newClusterManager(t, dir, "node-a", nil)
	mB := newClusterManager(t, dir, "node-b", nil)

	job, err := mA.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	man := waitManifestState(t, probe, job.ID, store.StateSucceeded)
	if man.Cost == nil || *man.Cost != direct.Cost {
		t.Fatalf("manifest cost %v, want %d", man.Cost, direct.Cost)
	}

	for _, m := range []*Manager{mA, mB} {
		st, ok := m.StatusOf(job.ID)
		if !ok || st.State != StateSucceeded {
			t.Fatalf("StatusOf on %s: ok=%v state=%v", m.cfg.NodeID, ok, st.State)
		}
		if st.Node != "node-a" && st.Node != "node-b" {
			t.Fatalf("status node = %q", st.Node)
		}
		h, r, err := m.ResultBytes(job.ID)
		if err != nil {
			t.Fatalf("ResultBytes on %s: %v", m.cfg.NodeID, err)
		}
		assertSameRelease(t, h, r, direct)
	}
	claimed := mA.Snapshot().Counters["server.leases_claimed"] +
		mB.Snapshot().Counters["server.leases_claimed"]
	if claimed != 1 {
		t.Fatalf("leases_claimed across cluster = %d, want 1", claimed)
	}
}

// TestClusterForeignQueuedJobDrained: a queued manifest written by a
// node that no longer exists (no local submission, no poke) is found by
// the claim loop's ticker and run to the correct release.
func TestClusterForeignQueuedJobDrained(t *testing.T) {
	dir := t.TempDir()
	header, rows, direct := smallInstance(t, 62)
	probe := openStoreAt(t, dir)
	man := &store.Manifest{
		ID: "foreign-q", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}

	m := newClusterManager(t, dir, "node-b", nil)
	waitManifestState(t, probe, "foreign-q", store.StateSucceeded)
	h, r, err := m.ResultBytes("foreign-q")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelease(t, h, r, direct)
	if got := m.Snapshot().Counters["server.leases_stolen"]; got != 0 {
		t.Errorf("claiming a queued job counted as a steal (%d)", got)
	}
}

// TestClusterStealsExpiredLease: a job left running under a dead node's
// expired lease is stolen — fence bumped past the corpse's, the steal
// counted, and the release byte-identical to a direct run.
func TestClusterStealsExpiredLease(t *testing.T) {
	dir := t.TempDir()
	header, rows, direct := smallInstance(t, 63)
	probe := openStoreAt(t, dir)
	man := &store.Manifest{
		ID: "orphan-r", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	// The dead node claimed it a minute ago and never renewed.
	if _, _, err := probe.ClaimJob("orphan-r", "dead-node", time.Second, time.Now().Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}

	m := newClusterManager(t, dir, "node-b", nil)
	got := waitManifestState(t, probe, "orphan-r", store.StateSucceeded)
	if got.Fence != 2 {
		t.Errorf("fence after steal = %d, want 2", got.Fence)
	}
	if n := m.Snapshot().Counters["server.leases_stolen"]; n != 1 {
		t.Errorf("leases_stolen = %d, want 1", n)
	}
	h, r, err := m.ResultBytes("orphan-r")
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelease(t, h, r, direct)
}

// TestClusterCancelBeforeClaimHonored: a cancellation requested while a
// job sat under a dead node's lease is honored by whichever node steals
// it — the job lands canceled without being re-run.
func TestClusterCancelBeforeClaimHonored(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 64)
	probe := openStoreAt(t, dir)
	man := &store.Manifest{
		ID: "doomed-r", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.ClaimJob("doomed-r", "dead-node", time.Second, time.Now().Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := probe.RequestCancel("doomed-r", "user asked", time.Now()); err != nil {
		t.Fatal(err)
	}

	m := newClusterManager(t, dir, "node-b", nil)
	got := waitManifestState(t, probe, "doomed-r", store.StateCanceled)
	if got.Claim != nil {
		t.Errorf("canceled job still holds a lease: %+v", got.Claim)
	}
	if st, ok := m.StatusOf("doomed-r"); !ok || st.State != StateCanceled {
		t.Errorf("StatusOf = %+v ok=%v, want canceled", st, ok)
	}
}

// TestClusterCancelRunningCrossNode: DELETE on a node that does NOT run
// the job flags the manifest; the lease holder notices at its next
// renewal and unwinds to canceled.
func TestClusterCancelRunningCrossNode(t *testing.T) {
	dir := t.TempDir()
	header, rows := slowInstance(t)
	probe := openStoreAt(t, dir)
	short := func(c *Config) { c.LeaseTTL = 300 * time.Millisecond }

	mA := newClusterManager(t, dir, "node-a", short)
	mB := newClusterManager(t, dir, "node-b", short)

	job, err := mA.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	man := waitManifestState(t, probe, job.ID, store.StateRunning)
	if man.Claim == nil {
		t.Fatal("running manifest has no claim")
	}
	// Cancel through the node that is NOT the lease holder.
	other := mA
	if man.Claim.Node == "node-a" {
		other = mB
	}
	st, ok := other.CancelByID(job.ID)
	if !ok {
		t.Fatalf("cancel via %s: unknown job", other.cfg.NodeID)
	}
	if st.State.Terminal() && st.State != StateCanceled {
		t.Fatalf("cancel answered terminal state %v", st.State)
	}
	got := waitManifestState(t, probe, job.ID, store.StateCanceled)
	if got.Claim != nil {
		t.Errorf("canceled job still holds a lease: %+v", got.Claim)
	}
}

// TestClusterShutdownReleasesRunning: a drain deadline that fires while
// a claimed job runs releases it back to the shared queue — state
// queued, lease cleared, fence intact — so a peer can claim and finish
// it instead of the work being lost or marked canceled.
func TestClusterShutdownReleasesRunning(t *testing.T) {
	dir := t.TempDir()
	header, rows := slowInstance(t)
	probe := openStoreAt(t, dir)

	m := NewManager(Config{
		Store: openStoreAt(t, dir), NodeID: "node-a", Workers: 1,
		JobTimeout: time.Minute, ResultTTL: time.Minute,
	})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	waitManifestState(t, probe, job.ID, store.StateRunning)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain budget already spent: force the release path
	if err := m.Shutdown(ctx); err == nil {
		t.Fatal("shutdown with expired deadline returned nil")
	}
	man := waitManifestState(t, probe, job.ID, store.StateQueued)
	if man.Claim != nil {
		t.Fatalf("released job still holds a lease: %+v", man.Claim)
	}
	if man.Fence != 1 {
		t.Errorf("fence after release = %d, want 1 (fence survives release)", man.Fence)
	}
	if n := m.Snapshot().Counters["server.leases_released"]; n != 1 {
		t.Errorf("leases_released = %d, want 1", n)
	}
	// A peer (modeled directly against the store) claims the released
	// job at the next fence.
	claimed, stolen, err := probe.ClaimJob(job.ID, "node-b", time.Minute, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if stolen || claimed.Fence != 2 {
		t.Errorf("re-claim: stolen=%v fence=%d, want false/2", stolen, claimed.Fence)
	}
}

// TestClusterHealth: the /healthz payload carries the node identity and
// capacity picture a router balances on.
func TestClusterHealth(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 65)
	m := newClusterManager(t, dir, "node-a", func(c *Config) { c.Workers = 2 })

	h := m.Health()
	if h.Status != "ok" || h.Node != "node-a" || h.Capacity != 2 || h.Free != 2 ||
		h.Running != 0 || h.Queued != 0 || h.Claimed != 0 {
		t.Fatalf("idle health = %+v", h)
	}

	job, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	h = m.Health()
	if h.Jobs != 1 || h.Queued != 0 || h.Claimed != 0 || h.Free != 2 {
		t.Fatalf("post-job health = %+v", h)
	}
}

// TestLegacyHealth: outside cluster mode the payload keeps the old
// fields and derives capacity from the worker pool, with no node label.
func TestLegacyHealth(t *testing.T) {
	m := newTestManager(t, Config{Workers: 3})
	h := m.Health()
	if h.Node != "" || h.Capacity != 3 || h.Free != 3 || h.Status != "ok" {
		t.Fatalf("legacy health = %+v", h)
	}
	if q, c := m.ClusterDepths(); q != 0 || c != 0 {
		t.Fatalf("legacy ClusterDepths = %d/%d, want 0/0", q, c)
	}
}

// TestClusterUnrunnableJobFailsDurably: a claimed job whose request
// spool is unreadable is failed on disk — once, durably — instead of
// ping-ponging between nodes as claim/release forever.
func TestClusterUnrunnableJobFailsDurably(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 66)
	probe := openStoreAt(t, dir)
	man := &store.Manifest{
		ID: "hollow", State: store.StateQueued, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	// Corrupt the request spool: the manifest claims, the table is gone.
	if err := os.Remove(filepath.Join(dir, "jobs", "hollow", "request.csv")); err != nil {
		t.Fatal(err)
	}

	m := newClusterManager(t, dir, "node-b", nil)
	got := waitManifestState(t, probe, "hollow", store.StateFailed)
	if got.Error == "" {
		t.Error("failed manifest carries no error text")
	}
	// The failure is journaled as the job's last event, right after the
	// manifest commit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		events, _ := m.EventsOf("hollow")
		if n := len(events); n > 0 && events[n-1].Event == obs.EvFailed {
			if events[n-1].Fence != got.Fence || events[n-1].Detail != got.Error {
				t.Errorf("failed event %+v, want fence %d and detail %q", events[n-1], got.Fence, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal of the unrunnable job = %+v, want it to end with failed", events)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := m.Snapshot().Counters["server.jobs_failed"]; n != 1 {
		t.Errorf("jobs_failed = %d, want 1", n)
	}
	// The failure is terminal: nothing re-claims it.
	time.Sleep(50 * time.Millisecond)
	if got2, err := probe.ReadManifest("hollow"); err != nil || got2.State != store.StateFailed {
		t.Errorf("job left %v/%v, want stable failed state", got2, err)
	}
}

// TestClusterJanitorReapsForeignTerminal: the cluster sweep reaps an
// expired terminal job finished by a node that no longer exists.
func TestClusterJanitorReapsForeignTerminal(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 67)
	probe := openStoreAt(t, dir)
	old := time.Now().Add(-time.Hour).UTC()
	man := &store.Manifest{
		ID: "stale-t", State: store.StateFailed, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: old.Add(-time.Minute),
		Error: "boom", FinishedAt: &old, Node: "dead-node",
	}
	if err := probe.CreateJob(man, header, rows); err != nil {
		t.Fatal(err)
	}
	// A job that finished moments ago is inside its TTL: the sweep must
	// leave it alone while reaping its expired sibling.
	fresh := time.Now().Add(time.Hour).UTC() // far future: immune to slow test runs
	man2 := &store.Manifest{
		ID: "fresh-t", State: store.StateFailed, K: 3, Algo: "ball",
		Rows: len(rows), Cols: len(header), SubmittedAt: old,
		Error: "boom", FinishedAt: &fresh, Node: "dead-node",
	}
	if err := probe.CreateJob(man2, header, rows); err != nil {
		t.Fatal(err)
	}

	newClusterManager(t, dir, "node-b", func(c *Config) { c.ResultTTL = 50 * time.Millisecond })
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := probe.ReadManifest("stale-t"); err != nil {
			break // reaped
		}
		if time.Now().After(deadline) {
			t.Fatal("foreign terminal job never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := probe.ReadManifest("fresh-t"); err != nil {
		t.Errorf("sweep reaped a terminal job inside its TTL: %v", err)
	}
}

// TestClusterCancelByIDPaths: the cancel entry point across its cluster
// branches — unknown IDs, a job running locally, and a job still
// queued.
func TestClusterCancelByIDPaths(t *testing.T) {
	dir := t.TempDir()
	probe := openStoreAt(t, dir)
	m := newClusterManager(t, dir, "node-a", func(c *Config) { c.Workers = 1 })

	if _, ok := m.CancelByID("no-such-job"); ok {
		t.Fatal("cancel of unknown id reported ok")
	}

	// Occupy the single worker with a slow job, then cancel it locally —
	// the direct (same-node) fast path.
	slowHeader, slowRows := slowInstance(t)
	running, err := m.Submit(slowHeader, slowRows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	waitManifestState(t, probe, running.ID, store.StateRunning)
	if _, claimed := m.ClusterDepths(); claimed != 1 {
		t.Errorf("ClusterDepths claimed = %d, want 1", claimed)
	}

	// A second submission has no free slot: it stays queued, and its
	// cancellation goes through the store.
	header, rows, _ := smallInstance(t, 68)
	queued, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := m.CancelByID(queued.ID)
	if !ok || st.State != StateCanceled {
		t.Fatalf("queued cancel: ok=%v state=%v", ok, st.State)
	}
	if man, err := probe.ReadManifest(queued.ID); err != nil || man.State != store.StateCanceled {
		t.Fatalf("queued cancel on disk: %v %v", man, err)
	}

	if _, ok := m.CancelByID(running.ID); !ok {
		t.Fatal("running cancel: unknown job")
	}
	got := waitManifestState(t, probe, running.ID, store.StateCanceled)
	if got.Claim != nil {
		t.Errorf("canceled job still holds a lease: %+v", got.Claim)
	}
}

// TestClusterQueueFullAcrossNodes: admission control measures the
// cluster-wide backlog, so a node with idle submitters still rejects
// once the shared queue is at capacity.
func TestClusterQueueFullAcrossNodes(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 69)
	probe := openStoreAt(t, dir)
	// No manager is running: manifests pile up queued, as if submitted
	// on nodes whose workers are saturated.
	for _, id := range []string{"q1", "q2"} {
		man := &store.Manifest{
			ID: id, State: store.StateQueued, K: 3, Algo: "ball",
			Rows: len(rows), Cols: len(header), SubmittedAt: time.Now().UTC(),
		}
		if err := probe.CreateJob(man, header, rows); err != nil {
			t.Fatal(err)
		}
	}
	m := newClusterManager(t, dir, "node-a", func(c *Config) {
		c.QueueCapacity = 2
		c.Workers = 1
	})
	// The two queued foreign jobs fill the shared queue faster than the
	// single worker drains it; keep submitting until the depth check
	// fires or the backlog empties (then the test cannot assert).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
		if errors.Is(err, ErrQueueFull) {
			return // admission correctly measured the shared backlog
		}
		if err != nil {
			t.Fatalf("unexpected submit error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Skip("workers drained the backlog faster than submissions; cannot provoke queue-full")
		}
	}
}

// TestClusterSubmitWhileDraining: a submission racing shutdown is
// refused and its just-written store entry unwound.
func TestClusterSubmitWhileDraining(t *testing.T) {
	dir := t.TempDir()
	header, rows, _ := smallInstance(t, 70)
	probe := openStoreAt(t, dir)
	m := NewManager(Config{
		Store: openStoreAt(t, dir), NodeID: "node-a",
		JobTimeout: time.Minute, ResultTTL: time.Minute,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if job != nil {
		if _, rerr := probe.ReadManifest(job.ID); rerr == nil {
			t.Error("refused submission left its store entry behind")
		}
	}
}

// TestClusterLeaseStolenMidRun: a node that loses its lease mid-run
// observes the fence at its next renewal, abandons the job locally, and
// never commits over the thief's claim.
func TestClusterLeaseStolenMidRun(t *testing.T) {
	dir := t.TempDir()
	header, rows := slowInstance(t)
	probe := openStoreAt(t, dir)
	m := newClusterManager(t, dir, "node-a", func(c *Config) {
		c.LeaseTTL = 300 * time.Millisecond
		c.Workers = 1
	})
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	waitManifestState(t, probe, job.ID, store.StateRunning)

	// Steal the lease out from under the runner: pretend to be a node
	// whose clock says the lease expired (the store trusts the caller's
	// "now"; real nodes only steal past the deadline). The long TTL
	// keeps the stolen claim live so node-a cannot steal it back.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, err := probe.ClaimJob(job.ID, "thief", time.Hour, time.Now().Add(time.Minute)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("could not steal the lease")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Node-a's next renewal is fenced: it must flag the loss, cancel the
	// run, and leave the thief's claim untouched.
	deadline = time.Now().Add(10 * time.Second)
	for m.Snapshot().Counters["server.leases_lost"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease loss never observed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Give the abandoned run a moment to unwind, then confirm the
	// thief's claim survived whatever node-a did on the way out.
	time.Sleep(100 * time.Millisecond)
	man, err := probe.ReadManifest(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if man.State != store.StateRunning || man.Claim == nil || man.Claim.Node != "thief" || man.Fence != 2 {
		t.Fatalf("thief's claim clobbered: %+v fence=%d", man.Claim, man.Fence)
	}
	if st, ok := m.StatusOf(job.ID); ok && st.State.Terminal() {
		t.Errorf("abandoned job reported terminal locally: %+v", st)
	}
}

// lockedBuffer is a bytes.Buffer that slog handlers on several
// goroutines may write while the test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestClusterQueueDepthAndRecovered: on a two-node cluster each node's
// server.queue_depth is the number of queued manifests its last claim
// scan saw, and server.jobs_recovered counts the claims of jobs
// admitted before the node started, each logged as job_recovered.
func TestClusterQueueDepthAndRecovered(t *testing.T) {
	dir := t.TempDir()
	probe := openStoreAt(t, dir)
	slowHeader, slowRows := mustParse(t, slowCSV())
	header, rows, _ := smallInstance(t, 72)
	// All four jobs predate both nodes. The two slow ones are oldest, so
	// they occupy the nodes' single workers and the others stay queued.
	base := time.Now().Add(-time.Minute).UTC()
	jobs := []struct {
		id   string
		slow bool
	}{{"blocker-1", true}, {"blocker-2", true}, {"pre-1", false}, {"pre-2", false}}
	for i, j := range jobs {
		man := &store.Manifest{ID: j.id, State: store.StateQueued, K: 3, Algo: "ball",
			Rows: len(rows), Cols: len(header), SubmittedAt: base.Add(time.Duration(i) * time.Second)}
		h, r := header, rows
		if j.slow {
			man.K, man.Algo, man.Rows, man.Cols = 2, "exact", len(slowRows), len(slowHeader)
			h, r = slowHeader, slowRows
		}
		if err := probe.CreateJob(man, h, r); err != nil {
			t.Fatal(err)
		}
	}

	var logs lockedBuffer
	one := func(c *Config) {
		c.Workers = 1
		c.LeaseTTL = 2 * time.Second // renewals never lapse under load; claims scan every 400ms
		c.Log = slog.New(slog.NewTextHandler(&logs, nil))
	}
	mA := newClusterManager(t, dir, "node-a", one)
	mB := newClusterManager(t, dir, "node-b", one)
	nodes := []*Manager{mA, mB}

	deadline := time.Now().Add(10 * time.Second)
	for _, m := range nodes {
		for m.Snapshot().Gauges["server.queue_depth"].Last != 2 {
			if time.Now().After(deadline) {
				t.Fatalf("%s queue_depth = %d, want 2", m.cfg.NodeID, m.Snapshot().Gauges["server.queue_depth"].Last)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, id := range []string{"blocker-1", "blocker-2"} {
		if _, ok := mA.CancelByID(id); !ok {
			t.Fatalf("cancel %s: unknown job", id)
		}
	}
	waitManifestState(t, probe, "pre-1", store.StateSucceeded)
	waitManifestState(t, probe, "pre-2", store.StateSucceeded)
	for _, id := range []string{"blocker-1", "blocker-2"} {
		waitManifestState(t, probe, id, store.StateCanceled)
	}

	recovered := mA.Snapshot().Counters["server.jobs_recovered"] + mB.Snapshot().Counters["server.jobs_recovered"]
	if recovered != 4 {
		t.Errorf("jobs_recovered across the cluster = %d, want 4", recovered)
	}
	if n := strings.Count(logs.String(), "msg=job_recovered"); n != 4 {
		t.Errorf("%d job_recovered log events, want 4", n)
	}
}

// TestClusterPeerRunJobSettlesOnSubmitter: a job submitted on node A
// but run on node B (A's one worker is busy) does not linger on A as a
// queued ghost. A's copy turns terminal once B finishes — Done closes
// and A's active count drops — and once the janitor reaps the job, A
// answers 404 like every other node.
func TestClusterPeerRunJobSettlesOnSubmitter(t *testing.T) {
	dir := t.TempDir()
	slowHeader, slowRows := mustParse(t, slowCSV())
	header, rows, _ := smallInstance(t, 73)
	cfg := func(workers int) func(*Config) {
		return func(c *Config) {
			c.Workers = workers
			c.LeaseTTL = 2 * time.Second // renewals never lapse under load; claims scan every 400ms
			c.ResultTTL = time.Second
		}
	}
	mA := newClusterManager(t, dir, "node-a", cfg(1))
	blocker, err := mA.Submit(slowHeader, slowRows, JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, mA, blocker.ID)
	defer mA.CancelByID(blocker.ID)

	mB := newClusterManager(t, dir, "node-b", cfg(2))
	job, err := mA.Submit(header, rows, JobRequest{K: 3, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.State != StateSucceeded {
		t.Fatalf("A's copy after B ran the job: %+v, want succeeded", st)
	}
	if h := mA.Health(); h.Active != 1 {
		t.Errorf("A's active jobs = %d, want 1 (the blocker)", h.Active)
	}
	if st, ok := mA.StatusOf(job.ID); !ok || st.State != StateSucceeded || st.Node != "node-b" || st.Cost == nil {
		t.Errorf("A's status of B's run: %+v ok=%v, want succeeded on node-b with a cost", st, ok)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, onA := mA.StatusOf(job.ID)
		_, onB := mB.StatusOf(job.ID)
		if !onA && !onB {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reaped job still known: on A %v, on B %v", onA, onB)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if h := mA.Health(); h.Active != 1 || h.Jobs != 1 {
		t.Errorf("A's health after the reap: %+v, want only the blocker", h)
	}
}
