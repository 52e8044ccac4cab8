package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// openClaimStore opens a store with a job already persisted queued.
func openClaimStore(t *testing.T, ids ...string) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.CreateJob(testManifest(id), []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}, {"5", "6"}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestClaimLifecycle(t *testing.T) {
	s := openClaimStore(t, "job-1")
	now := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
	ttl := time.Minute

	m, stolen, err := s.ClaimJob("job-1", "node-a", ttl, now)
	if err != nil {
		t.Fatal(err)
	}
	if stolen {
		t.Error("claiming a queued job reported stolen")
	}
	if m.State != StateRunning || m.Fence != 1 || m.Claim == nil ||
		m.Claim.Node != "node-a" || !m.Claim.Expires.Equal(now.Add(ttl)) {
		t.Fatalf("claimed manifest wrong: %+v claim %+v", m, m.Claim)
	}
	if m.StartedAt == nil || !m.StartedAt.Equal(now) {
		t.Errorf("claim did not stamp StartedAt: %v", m.StartedAt)
	}

	// A live lease blocks other claimers.
	if _, _, err := s.ClaimJob("job-1", "node-b", ttl, now.Add(time.Second)); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("second claim under a live lease: err = %v, want ErrNotClaimable", err)
	}

	// The owner renews; the deadline moves.
	m, err = s.RenewLease("job-1", "node-a", 1, ttl, now.Add(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Claim.Expires.Equal(now.Add(90 * time.Second)) {
		t.Errorf("renew deadline = %v", m.Claim.Expires)
	}

	// The owner finishes; the claim clears, the fence survives.
	cost := 2
	m, err = s.UpdateClaimed("job-1", "node-a", 1, func(m *Manifest) error {
		m.State = StateSucceeded
		m.Cost = &cost
		fin := now.Add(time.Minute)
		m.FinishedAt = &fin
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateSucceeded || m.Claim != nil || m.Fence != 1 {
		t.Fatalf("terminal manifest wrong: %+v", m)
	}

	// Terminal jobs are not claimable.
	if _, _, err := s.ClaimJob("job-1", "node-b", ttl, now.Add(2*time.Minute)); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("claim of terminal job: err = %v, want ErrNotClaimable", err)
	}
}

func TestClaimStealAfterExpiryFencesOldOwner(t *testing.T) {
	s := openClaimStore(t, "job-1")
	now := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)

	if _, _, err := s.ClaimJob("job-1", "node-a", time.Second, now); err != nil {
		t.Fatal(err)
	}
	// Before expiry: not stealable.
	if _, _, err := s.ClaimJob("job-1", "node-b", time.Second, now.Add(500*time.Millisecond)); !errors.Is(err, ErrNotClaimable) {
		t.Fatalf("pre-expiry steal: err = %v", err)
	}
	// At/after expiry: stolen, fence bumps.
	m, stolen, err := s.ClaimJob("job-1", "node-b", time.Minute, now.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !stolen || m.Fence != 2 || m.Claim.Node != "node-b" {
		t.Fatalf("steal wrong: stolen=%v %+v claim %+v", stolen, m, m.Claim)
	}

	// Every write path of the displaced owner is a fenced no-op.
	if _, err := s.RenewLease("job-1", "node-a", 1, time.Minute, now.Add(2*time.Second)); !errors.Is(err, ErrFenced) {
		t.Errorf("stale renew: err = %v, want ErrFenced", err)
	}
	if _, err := s.UpdateClaimed("job-1", "node-a", 1, func(m *Manifest) error {
		m.State = StateFailed
		return nil
	}); !errors.Is(err, ErrFenced) {
		t.Errorf("stale update: err = %v, want ErrFenced", err)
	}
	if _, err := s.ReleaseJob("job-1", "node-a", 1); !errors.Is(err, ErrFenced) {
		t.Errorf("stale release: err = %v, want ErrFenced", err)
	}
	// None of those touched the new owner's claim.
	m2, err := s.ReadManifest("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if m2.State != StateRunning || m2.Fence != 2 || m2.Claim == nil || m2.Claim.Node != "node-b" {
		t.Fatalf("stale writers changed the manifest: %+v claim %+v", m2, m2.Claim)
	}
}

func TestClaimOrphanedRunningJob(t *testing.T) {
	// A running manifest without a claim is an orphan from a pre-cluster
	// crash; it is immediately claimable and reported as stolen.
	s := openClaimStore(t)
	m := testManifest("job-1")
	m.State = StateRunning
	if err := s.CreateJob(m, []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	got, stolen, err := s.ClaimJob("job-1", "node-a", time.Minute, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !stolen || got.Fence != 1 {
		t.Fatalf("orphan claim: stolen=%v fence=%d", stolen, got.Fence)
	}
}

func TestReleaseMakesJobReclaimable(t *testing.T) {
	s := openClaimStore(t, "job-1")
	now := time.Now()
	if _, _, err := s.ClaimJob("job-1", "node-a", time.Minute, now); err != nil {
		t.Fatal(err)
	}
	m, err := s.ReleaseJob("job-1", "node-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateQueued || m.Claim != nil || m.StartedAt != nil || m.Fence != 1 {
		t.Fatalf("released manifest wrong: %+v", m)
	}
	m, stolen, err := s.ClaimJob("job-1", "node-b", time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	if stolen || m.Fence != 2 || m.Claim.Node != "node-b" {
		t.Fatalf("re-claim after release: stolen=%v %+v", stolen, m)
	}
}

func TestRequestCancel(t *testing.T) {
	now := time.Now()
	s := openClaimStore(t, "queued-1", "running-1")

	m, _, err := s.RequestCancel("queued-1", "context canceled", now)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateCanceled || m.Error != "context canceled" || m.FinishedAt == nil {
		t.Fatalf("queued cancel: %+v", m)
	}

	if _, _, err := s.ClaimJob("running-1", "node-a", time.Minute, now); err != nil {
		t.Fatal(err)
	}
	m, _, err = s.RequestCancel("running-1", "context canceled", now)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateRunning || !m.CancelRequested {
		t.Fatalf("running cancel: %+v", m)
	}
	// The owner sees the flag ride back on its next renewal.
	m, err = s.RenewLease("running-1", "node-a", 1, time.Minute, now)
	if err != nil {
		t.Fatal(err)
	}
	if !m.CancelRequested {
		t.Error("renewal did not surface CancelRequested")
	}

	// Cancelling a terminal job is a no-op.
	if _, err := s.UpdateClaimed("running-1", "node-a", 1, func(m *Manifest) error {
		m.State = StateCanceled
		m.Error = "context canceled"
		fin := now
		m.FinishedAt = &fin
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m, _, err = s.RequestCancel("running-1", "again", now)
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateCanceled || m.Error != "context canceled" {
		t.Fatalf("terminal cancel mutated the job: %+v", m)
	}
}

// manifestWrites counts the manifest commits that reach its backend.
type manifestWrites struct {
	Backend
	n int
}

func (b *manifestWrites) WriteAtomic(rel string, data []byte) error {
	if path.Base(rel) == "manifest.json" {
		b.n++
	}
	return b.Backend.WriteAtomic(rel, data)
}

// TestRequestCancelReportsTransition: RequestCancel reports whether the
// call itself cancelled a queued job or flagged a running one, and a
// repeat, which changes nothing, rewrites nothing.
func TestRequestCancelReportsTransition(t *testing.T) {
	now := time.Now()
	be := &manifestWrites{Backend: NewMemory()}
	s, err := OpenBackend(be)
	if err != nil {
		t.Fatal(err)
	}
	createJobs(t, s, "queued-1", "running-1")
	if _, _, err := s.ClaimJob("running-1", "node-a", time.Minute, now); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, state string
		changed   bool
		writes    int
	}{
		{"queued-1", StateCanceled, true, 1},
		{"queued-1", StateCanceled, false, 0},
		{"running-1", StateRunning, true, 1},
		{"running-1", StateRunning, false, 0},
	} {
		before := be.n
		m, changed, err := s.RequestCancel(tc.id, "context canceled", now)
		if err != nil {
			t.Fatal(err)
		}
		if m.State != tc.state || changed != tc.changed || be.n-before != tc.writes {
			t.Errorf("cancel %s: state %s changed %v with %d manifest writes, want %s %v %d",
				tc.id, m.State, changed, be.n-before, tc.state, tc.changed, tc.writes)
		}
	}
}

func TestReapTerminalOnlyReapsExpiredTerminal(t *testing.T) {
	now := time.Now()
	s := openClaimStore(t, "job-1")

	// Queued: not reapable — and, critically, still claimable after the
	// refused reap (the lease-before-reap fix: reap and claim serialize
	// on the same lock, so neither can half-win).
	if reaped, err := s.ReapTerminal("job-1", now); err != nil || reaped {
		t.Fatalf("reap of queued job: reaped=%v err=%v", reaped, err)
	}
	if _, _, err := s.ClaimJob("job-1", "node-a", time.Minute, now); err != nil {
		t.Fatal(err)
	}
	if reaped, err := s.ReapTerminal("job-1", now); err != nil || reaped {
		t.Fatalf("reap of running job: reaped=%v err=%v", reaped, err)
	}

	fin := now.Add(-time.Hour)
	if _, err := s.UpdateClaimed("job-1", "node-a", 1, func(m *Manifest) error {
		m.State = StateSucceeded
		m.FinishedAt = &fin
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Finished an hour ago; cutoff before that → too fresh.
	if reaped, err := s.ReapTerminal("job-1", now.Add(-2*time.Hour)); err != nil || reaped {
		t.Fatalf("reap before cutoff: reaped=%v err=%v", reaped, err)
	}
	if reaped, err := s.ReapTerminal("job-1", now); err != nil || !reaped {
		t.Fatalf("reap of expired terminal: reaped=%v err=%v", reaped, err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "jobs", "job-1")); !os.IsNotExist(err) {
		t.Fatalf("job directory survived the reap: %v", err)
	}
	// Idempotent, and the gone job is cleanly unclaimable.
	if reaped, err := s.ReapTerminal("job-1", now); err != nil || reaped {
		t.Fatalf("second reap: reaped=%v err=%v", reaped, err)
	}
	if _, _, err := s.ClaimJob("job-1", "node-a", time.Minute, now); err == nil {
		t.Fatal("claim of reaped job succeeded")
	}
}

func TestStaleLockBroken(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		s := open()
		createJobs(t, s, "job-1")
		s.SetLockStale(50 * time.Millisecond)
		// A lock whose holder never releases it: claimers wait out
		// lockStale, then break it.
		if err := s.Backend().TryLock("jobs/job-1/manifest.lock"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ClaimJob("job-1", "node-a", time.Minute, time.Now()); err != nil {
			t.Fatalf("claim under stale lock: %v", err)
		}
	})
}

// TestLeaseRunsFromCommitAfterStaleLock: a claim that waits out a dead
// holder's lock commits a lease running a full TTL from the commit, not
// from the caller's clock reading before the wait. A second claimer
// that waited on the same lock, and reads its clock later by less than
// the wait plus the TTL, must find the lease live, not already expired
// and stealable. A renewal stuck behind a stale lock is timed the same
// way.
func TestLeaseRunsFromCommitAfterStaleLock(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		// A file's mtime may trail the clock by a tick, so the wait can
		// fall a little short of stale: late keeps ttl/2 of margin.
		const stale, ttl = 300 * time.Millisecond, 100 * time.Millisecond
		const late = stale + ttl/2
		s := open()
		createJobs(t, s, "job-1")
		s.SetLockStale(stale)
		lock := func() {
			t.Helper()
			if err := s.Backend().TryLock("jobs/job-1/manifest.lock"); err != nil {
				t.Fatal(err)
			}
		}
		at := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
		lock()
		m, _, err := s.ClaimJob("job-1", "node-a", ttl, at)
		if err != nil {
			t.Fatalf("claim under stale lock: %v", err)
		}
		if got := m.Claim.Expires.Sub(at); got <= late {
			t.Fatalf("lease committed %v past the claim's clock, want > %v (the lock wait plus the TTL)", got, late)
		}
		if _, _, err := s.ClaimJob("job-1", "node-b", ttl, at.Add(late)); !errors.Is(err, ErrNotClaimable) {
			t.Fatalf("second claim behind the same lock: err = %v, want ErrNotClaimable", err)
		}

		renewAt := m.Claim.Expires
		lock()
		m, err = s.RenewLease("job-1", "node-a", m.Fence, ttl, renewAt)
		if err != nil {
			t.Fatalf("renew under stale lock: %v", err)
		}
		if got := m.Claim.Expires.Sub(renewAt); got <= late {
			t.Fatalf("renewal committed %v past the renewal's clock, want > %v", got, late)
		}
	})
}

// TestConcurrentClaimProperty is the cluster-safety property test: N
// goroutine "nodes" hammer ClaimJob over a batch of queued jobs through
// independent Store handles (as cross-process as a unit test gets).
// Exactly one node wins each job, the losers' fenced writes are
// no-ops, and a released job is claimable again — by exactly one node.
func TestConcurrentClaimProperty(t *testing.T) {
	forEachBackend(t, testConcurrentClaimProperty)
}

func testConcurrentClaimProperty(t *testing.T, open func() *Store) {
	const nodes, jobs = 8, 16
	seed := open()
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = fmt.Sprintf("job-%03d", i)
	}
	createJobs(t, seed, ids...)
	handles := make([]*Store, nodes) // each "node" gets its own handle
	for n := range handles {
		handles[n] = open()
	}

	type win struct {
		node  int
		fence uint64
	}
	wins := make([][]win, jobs) // per job, appended under mu
	var mu sync.Mutex
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			s := handles[n]
			node := fmt.Sprintf("node-%d", n)
			for i, id := range ids {
				m, _, err := s.ClaimJob(id, node, time.Hour, time.Now())
				switch {
				case err == nil:
					mu.Lock()
					wins[i] = append(wins[i], win{node: n, fence: m.Fence})
					mu.Unlock()
				case errors.Is(err, ErrNotClaimable):
					// Lost the race: every fenced write must bounce. A
					// loser guesses the winner's fence correctly (1) but
					// still must not pass, because the node differs.
					if _, rerr := s.RenewLease(id, node, 1, time.Hour, time.Now()); !errors.Is(rerr, ErrFenced) {
						t.Errorf("loser %s renew on %s: err = %v, want ErrFenced", node, id, rerr)
					}
					if _, uerr := s.UpdateClaimed(id, node, 1, func(m *Manifest) error {
						m.State = StateFailed
						return nil
					}); !errors.Is(uerr, ErrFenced) {
						t.Errorf("loser %s update on %s: err = %v, want ErrFenced", node, id, uerr)
					}
				default:
					t.Errorf("claim %s by %s: unexpected error %v", id, node, err)
				}
			}
		}(n)
	}
	wg.Wait()

	for i, w := range wins {
		if len(w) != 1 {
			t.Fatalf("job %s won by %d nodes (%v), want exactly 1", ids[i], len(w), w)
		}
		if w[0].fence != 1 {
			t.Errorf("job %s first claim fence = %d, want 1", ids[i], w[0].fence)
		}
		m, err := seed.ReadManifest(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if m.State != StateRunning || m.Claim == nil || m.Claim.Node != fmt.Sprintf("node-%d", w[0].node) {
			t.Fatalf("job %s manifest disagrees with the recorded winner %d: %+v claim %+v",
				ids[i], w[0].node, m, m.Claim)
		}
	}

	// Round two: every winner releases, the pack re-claims. Again one
	// winner per job, now at fence 2.
	for i, w := range wins {
		if _, err := seed.ReleaseJob(ids[i], fmt.Sprintf("node-%d", w[0].node), 1); err != nil {
			t.Fatal(err)
		}
	}
	var reclaims [jobs]int64
	var rmu sync.Mutex
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			s := handles[n]
			node := fmt.Sprintf("node-%d", n)
			for i, id := range ids {
				if m, _, err := s.ClaimJob(id, node, time.Hour, time.Now()); err == nil {
					if m.Fence != 2 {
						t.Errorf("re-claim of %s fence = %d, want 2", id, m.Fence)
					}
					rmu.Lock()
					reclaims[i]++
					rmu.Unlock()
				}
			}
		}(n)
	}
	wg.Wait()
	for i, c := range reclaims {
		if c != 1 {
			t.Errorf("released job %s re-claimed %d times, want 1", ids[i], c)
		}
	}
}

// TestReapClaimRace drives the recovery-vs-janitor race the lock
// closes: goroutines repeatedly try to claim a terminal-but-expired job
// while another reaps it. The job must end exactly one way — reaped —
// and no claim may succeed after the reap reports done.
func TestReapClaimRace(t *testing.T) {
	forEachBackend(t, testReapClaimRace)
}

func testReapClaimRace(t *testing.T, open func() *Store) {
	for round := 0; round < 20; round++ {
		s := open()
		id := fmt.Sprintf("job-%d", round)
		createJobs(t, s, id)
		now := time.Now()
		if _, _, err := s.ClaimJob(id, "node-a", time.Minute, now); err != nil {
			t.Fatal(err)
		}
		fin := now.Add(-time.Hour)
		if _, err := s.UpdateClaimed(id, "node-a", 1, func(m *Manifest) error {
			m.State = StateFailed
			m.Error = "x"
			m.FinishedAt = &fin
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		claimed := make(chan struct{}, 4)
		for g := 0; g < 3; g++ {
			wg.Add(1)
			h := open()
			go func() {
				defer wg.Done()
				if _, _, err := h.ClaimJob(id, "node-b", time.Minute, time.Now()); err == nil {
					claimed <- struct{}{}
				}
			}()
		}
		wg.Add(1)
		var reaped bool
		h := open()
		go func() {
			defer wg.Done()
			r, err := h.ReapTerminal(id, now)
			if err != nil {
				t.Error(err)
			}
			reaped = r
		}()
		wg.Wait()
		close(claimed)
		// Terminal jobs are never claimable, so no claimer may have won,
		// and the reap must have gone through.
		if n := len(claimed); n != 0 {
			t.Fatalf("round %d: %d claims of a terminal job succeeded", round, n)
		}
		if !reaped {
			t.Fatalf("round %d: reap did not happen", round)
		}
	}
}

// lockWaiterBackend replays the reap's race with a lock waiter: its
// next fail RemoveAll calls of a job directory empty the directory,
// the reaper's lock included, then let a waiter's O_EXCL lock land
// before the final rmdir, which fails the way os.RemoveAll does.
type lockWaiterBackend struct {
	Backend
	fail int
}

func (b *lockWaiterBackend) RemoveAll(rel string) error {
	if b.fail == 0 || path.Dir(rel) != "jobs" {
		return b.Backend.RemoveAll(rel)
	}
	b.fail--
	entries, err := b.List(rel)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := b.Backend.RemoveAll(path.Join(rel, e.Name)); err != nil {
			return err
		}
	}
	if err := b.TryLock(path.Join(rel, "manifest.lock")); err != nil {
		return err
	}
	return &fs.PathError{Op: "unlinkat", Path: rel, Err: syscall.ENOTEMPTY}
}

// TestReapSurvivesLockWaiter: a waiter's lock file landing in the
// half-removed directory does not stop the reap, and a directory that
// keeps failing gets its manifest back, so it stays reapable instead of
// turning into a directory no scan can see.
func TestReapSurvivesLockWaiter(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		be := &lockWaiterBackend{Backend: open().Backend()}
		s, err := OpenBackend(be)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Now()
		fin := now.Add(-time.Hour)
		for _, id := range []string{"job-1", "job-2"} {
			createJobs(t, s, id)
			if _, _, err := s.ClaimJob(id, "node-a", time.Minute, now); err != nil {
				t.Fatal(err)
			}
			if _, err := s.UpdateClaimed(id, "node-a", 1, func(m *Manifest) error {
				m.State, m.Error, m.FinishedAt = StateFailed, "x", &fin
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}

		be.fail = 1
		if reaped, err := s.ReapTerminal("job-1", now); err != nil || !reaped {
			t.Fatalf("reap past one lock waiter: reaped=%v err=%v", reaped, err)
		}
		if entries, err := be.List("jobs"); err != nil || len(entries) != 1 || entries[0].Name != "job-2" {
			t.Fatalf("jobs after the reap: %v, %v", entries, err)
		}

		be.fail = reapAttempts
		if reaped, err := s.ReapTerminal("job-2", now); err == nil || reaped {
			t.Fatalf("reap that never finishes: reaped=%v err=%v", reaped, err)
		}
		if m, err := s.ReadManifest("job-2"); err != nil || m.State != StateFailed {
			t.Fatalf("manifest after a failed reap: %+v, %v", m, err)
		}
		// The waiter unlocks; the next sweep reaps the job.
		if err := be.Remove("jobs/job-2/manifest.lock"); err != nil {
			t.Fatal(err)
		}
		if reaped, err := s.ReapTerminal("job-2", now); err != nil || !reaped {
			t.Fatalf("second sweep: reaped=%v err=%v", reaped, err)
		}
		if entries, err := be.List("jobs"); err != nil || len(entries) != 0 {
			t.Fatalf("jobs after the second sweep: %v, %v", entries, err)
		}
	})
}

// TestClaimOpsOnMissingOrInvalidJobs: every claim-path operation fails
// cleanly — no panic, no directory creation — on IDs that are unsafe or
// simply not there.
func TestClaimOpsOnMissingOrInvalidJobs(t *testing.T) {
	s := openClaimStore(t)
	now := time.Now()
	if _, _, err := s.ClaimJob("ghost", "node-a", time.Minute, now); err == nil {
		t.Error("claim of missing job succeeded")
	}
	if _, err := s.RenewLease("ghost", "node-a", 1, time.Minute, now); err == nil {
		t.Error("renew of missing job succeeded")
	}
	if _, err := s.ReleaseJob("ghost", "node-a", 1); err == nil {
		t.Error("release of missing job succeeded")
	}
	if _, _, err := s.RequestCancel("ghost", "bye", now); err == nil {
		t.Error("cancel of missing job succeeded")
	}
	if _, _, err := s.ClaimJob("../evil", "node-a", time.Minute, now); err == nil {
		t.Error("claim of traversal id succeeded")
	}
	if _, _, err := s.ClaimJob("job", "../evil", time.Minute, now); err == nil {
		t.Error("claim under traversal node id succeeded")
	}
	if _, _, err := s.ClaimJob("job", "node-a", 0, now); err == nil {
		t.Error("claim with zero ttl succeeded")
	}
	if _, err := s.ReapTerminal("../evil", now); err == nil {
		t.Error("reap of traversal id succeeded")
	}
	if reaped, err := s.ReapTerminal("ghost", now); err != nil || reaped {
		t.Errorf("reap of missing job: reaped=%v err=%v", reaped, err)
	}
	if entries, err := os.ReadDir(filepath.Join(s.Dir(), "jobs")); err != nil || len(entries) != 0 {
		t.Errorf("claim ops left artifacts behind: %v %v", entries, err)
	}
}

// TestMutateRejectsCorruptManifest: a torn or foreign manifest stops
// the mutation instead of being overwritten with guessed content.
func TestMutateRejectsCorruptManifest(t *testing.T) {
	s := openClaimStore(t, "job-1")
	path := filepath.Join(s.Dir(), "jobs", "job-1", "manifest.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ClaimJob("job-1", "node-a", time.Minute, time.Now()); err == nil {
		t.Fatal("claim over corrupt manifest succeeded")
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "{not json" {
		t.Fatalf("corrupt manifest was rewritten: %q %v", b, err)
	}
}
