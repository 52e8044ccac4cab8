// Lease-based job claiming: the primitives that let N kanond processes
// share one data directory and drain a single queue.
//
// The manifest is still the single source of truth; what cluster mode
// adds is a Claim record inside it (node ID, fencing token, lease
// deadline) and a way to transition it atomically *across processes*.
// temp+fsync+rename alone gives atomic replacement but not mutual
// exclusion — two nodes could both read an unclaimed manifest and both
// rename a "claimed by me" version over it, each believing it won. So
// every claim-path mutation runs as a locked read-modify-write:
//
//  1. acquire <job>/manifest.lock with O_CREATE|O_EXCL — exactly one
//     process can create the file, so exactly one mutator is inside
//  2. re-read the manifest under the lock and check the transition is
//     still legal (the queued job is still queued, the lease really is
//     expired, the caller's fencing token is still current)
//  3. commit via the existing temp+fsync+rename primitive
//  4. release the lock by removing it
//
// A process that crashes between 1 and 4 leaves a stale lock; claimers
// break locks older than Store.lockStale (default 30s — mutations hold
// the lock for microseconds), so a crash stalls a job briefly instead
// of wedging it forever.
//
// Fencing: every successful claim increments the manifest's Fence.
// RenewLease, UpdateClaimed, ReleaseJob and WriteTraceFenced all verify
// (node, fence) under the lock before writing, so a node whose lease
// was stolen gets ErrFenced instead of silently clobbering the new
// owner's state — the stale writer becomes a no-op. The one write the
// fence does not gate is spool content (results, block checkpoints),
// and it does not need to: jobs are deterministic, so a stale owner
// racing the new one writes byte-identical files through unique temp
// names. A trace is not deterministic (it records one node's timings),
// so it is fenced.
package store

import (
	"errors"
	"fmt"
	"os"
	"path"
	"time"
)

// Claim-path errors. Callers branch on these: ErrNotClaimable means
// "someone else holds it, move on", ErrFenced means "you lost the
// lease, stop writing".
var (
	// ErrNotClaimable means the job is not in a claimable state: it is
	// terminal, or another node holds an unexpired lease on it.
	ErrNotClaimable = errors.New("store: job not claimable")
	// ErrFenced means the caller's fencing token is no longer current —
	// its lease expired and another node claimed the job. The caller
	// must treat the job as no longer its own and discard local writes.
	ErrFenced = errors.New("store: lease lost to a newer claim")
	// ErrLockBusy means the per-job mutation lock stayed contended past
	// the acquisition deadline. Transient; callers may retry.
	ErrLockBusy = errors.New("store: job mutation lock busy")
)

// lockAcquireTimeout bounds how long a mutation waits for the per-job
// lock before giving up with ErrLockBusy. Lock holds are microseconds;
// hitting this means something is deeply wrong (or a stale lock is
// waiting out lockStale).
const lockAcquireTimeout = 10 * time.Second

// reapAttempts bounds how often ReapTerminal removes a job directory
// that a lock waiter wrote into mid-removal.
const reapAttempts = 10

// errUnchanged, returned by a mutate callback, commits nothing: mutate
// returns the manifest as read, with no error.
var errUnchanged = errors.New("store: manifest unchanged")

// lockJob acquires the per-job mutation lock, returning the unlock
// function and how long the caller waited for it: zero when the first
// attempt won, the time since the call otherwise. The lock is a file
// created with O_EXCL — the one primitive that arbitrates between
// processes sharing the directory. Stale locks (older than lockStale,
// i.e. abandoned by a crash) are broken.
func (s *Store) lockJob(id string) (func(), time.Duration, error) {
	rel := path.Join(jobRel(id), "manifest.lock")
	start := time.Now()
	deadline := start.Add(lockAcquireTimeout)
	for tries := 0; ; tries++ {
		err := s.be.TryLock(rel)
		if err == nil {
			var waited time.Duration
			if tries > 0 {
				waited = time.Since(start)
			}
			return func() { _ = s.be.Remove(rel) }, waited, nil
		}
		if !errors.Is(err, os.ErrExist) {
			// Typically ENOENT: the job directory was reaped while we
			// were trying — surface that as the job being gone.
			return nil, 0, fmt.Errorf("store: locking job %s: %w", id, err)
		}
		if _, mt, serr := s.be.Stat(rel); serr == nil && time.Since(mt) > s.lockStale {
			// Abandoned by a crashed process. Removal may race another
			// breaker; whoever's TryLock wins next loop is the single
			// winner either way.
			_ = s.be.Remove(rel)
			continue
		}
		if time.Now().After(deadline) {
			return nil, 0, ErrLockBusy
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mutate applies fn to the job's manifest as one locked
// read-modify-write. fn sees the freshest committed manifest and how
// long the lock wait before it lasted (see lockJob); if it returns an
// error nothing is written. The committed manifest is returned on
// success, and the unwritten one when fn returns errUnchanged.
func (s *Store) mutate(id string, fn func(m *Manifest, waited time.Duration) error) (*Manifest, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	unlock, waited, err := s.lockJob(id)
	if err != nil {
		return nil, err
	}
	defer unlock()
	b, err := s.be.ReadFile(path.Join(jobRel(id), "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return nil, err
	}
	if err := fn(m, waited); err == errUnchanged {
		return m, nil
	} else if err != nil {
		return nil, err
	}
	out, err := EncodeManifest(m)
	if err != nil {
		return nil, err
	}
	if err := s.be.WriteAtomic(path.Join(jobRel(id), "manifest.json"), out); err != nil {
		return nil, err
	}
	return m, nil
}

// checkOwner verifies the caller still holds the job's lease. Called
// under the mutation lock, so the check and the subsequent write are
// one atomic step.
func checkOwner(m *Manifest, node string, fence uint64) error {
	if m.Claim == nil || m.Claim.Node != node || m.Fence != fence {
		return fmt.Errorf("%w (job %s: holder %s fence %d, caller %s fence %d)",
			ErrFenced, m.ID, claimNode(m), m.Fence, node, fence)
	}
	return nil
}

// claimNode names the current lease holder, for error text.
func claimNode(m *Manifest) string {
	if m.Claim == nil {
		return "<none>"
	}
	return m.Claim.Node
}

// ClaimJob atomically claims a job for node: a queued job, or a running
// job whose lease has expired (crash-failover steal) or was never
// leased (an orphan from a pre-cluster crash). On success the manifest
// is running, fenced one higher than before, and leased to node for
// ttl from the commit; stolen reports whether the claim displaced a
// previous holder. Any other state returns ErrNotClaimable.
//
// The commit's time is now plus however long the claim waited for the
// job's lock. That wait can outlast the lease: up to
// lockAcquireTimeout, or lockStale when the lock's holder died holding
// it. A lease of now+ttl would then be committed already expired, and
// a second claimer waiting on the same lock would steal it at once.
func (s *Store) ClaimJob(id, node string, ttl time.Duration, now time.Time) (m *Manifest, stolen bool, err error) {
	if err := ValidateNodeID(node); err != nil {
		return nil, false, err
	}
	if ttl <= 0 {
		return nil, false, fmt.Errorf("store: lease ttl %v, want > 0", ttl)
	}
	m, err = s.mutate(id, func(m *Manifest, waited time.Duration) error {
		now := now.Add(waited)
		switch {
		case m.State == StateQueued:
		case m.State == StateRunning && m.Claim == nil:
			stolen = true // orphaned mid-run by a crashed pre-cluster server
		case m.State == StateRunning && !now.Before(m.Claim.Expires):
			stolen = true
		default:
			return fmt.Errorf("%w (job %s: state %s, holder %s until %v)",
				ErrNotClaimable, m.ID, m.State, claimNode(m), claimExpiry(m))
		}
		m.State = StateRunning
		m.Fence++
		m.Claim = &Claim{Node: node, Expires: now.Add(ttl)}
		m.Node = node // survives the claim, so terminal status names its runner
		t := now
		m.StartedAt = &t
		m.FinishedAt = nil
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return m, stolen, nil
}

// claimExpiry is the holder's lease deadline, for error text.
func claimExpiry(m *Manifest) time.Time {
	if m.Claim == nil {
		return time.Time{}
	}
	return m.Claim.Expires
}

// RenewLease extends the lease of a job the caller owns to ttl from the
// commit, timed as ClaimJob times it. It returns the committed manifest
// so the owner also observes cross-node signals riding on it
// (CancelRequested). ErrFenced if the lease was stolen.
func (s *Store) RenewLease(id, node string, fence uint64, ttl time.Duration, now time.Time) (*Manifest, error) {
	return s.mutate(id, func(m *Manifest, waited time.Duration) error {
		if err := checkOwner(m, node, fence); err != nil {
			return err
		}
		m.Claim.Expires = now.Add(waited + ttl)
		return nil
	})
}

// UpdateClaimed applies a fenced manifest mutation — how a lease holder
// persists a job transition (typically to a terminal state). fn runs
// only if the caller still owns the lease; if fn leaves the job in any
// non-running state the claim record is cleared (the lease dies with
// the run; the fence survives as a high-water mark).
func (s *Store) UpdateClaimed(id, node string, fence uint64, fn func(*Manifest) error) (*Manifest, error) {
	return s.mutate(id, func(m *Manifest, _ time.Duration) error {
		if err := checkOwner(m, node, fence); err != nil {
			return err
		}
		if err := fn(m); err != nil {
			return err
		}
		if m.State != StateRunning {
			m.Claim = nil
		}
		return nil
	})
}

// ReleaseJob returns a job the caller owns to the queue: state queued,
// claim cleared, start time reset — as if never claimed, except the
// fence keeps growing so writes issued under the released lease stay
// fenced off. Used when a node must give up work it cannot finish
// (graceful shutdown with jobs still running); any node, including the
// releaser, may claim the job again.
func (s *Store) ReleaseJob(id, node string, fence uint64) (*Manifest, error) {
	return s.mutate(id, func(m *Manifest, _ time.Duration) error {
		if err := checkOwner(m, node, fence); err != nil {
			return err
		}
		m.State = StateQueued
		m.Claim = nil
		m.Node = "" // back on the queue, the job is nobody's again
		m.StartedAt = nil
		return nil
	})
}

// RequestCancel asks for a job's cancellation from anywhere in the
// cluster. A queued job is cancelled on the spot (terminal, with
// reason); a running job gets CancelRequested set, which its lease
// holder observes at the next renewal and unwinds. changed reports
// whether this call made that transition: a terminal job, or a running
// one already flagged, is left as it is and not rewritten. The current
// manifest is returned either way.
func (s *Store) RequestCancel(id, reason string, now time.Time) (m *Manifest, changed bool, err error) {
	m, err = s.mutate(id, func(m *Manifest, _ time.Duration) error {
		switch {
		case m.State == StateQueued:
			m.State = StateCanceled
			m.Error = reason
			t := now
			m.FinishedAt = &t
			m.Claim = nil
		case m.State == StateRunning && !m.CancelRequested:
			m.CancelRequested = true
		default:
			return errUnchanged
		}
		changed = true
		return nil
	})
	return m, changed && err == nil, err
}

// ReapTerminal removes a job's directory iff its manifest is terminal
// and it finished at or before cutoff. The check happens under the
// job's mutation lock, so a reap can never race a concurrent claim
// into deleting live work: a terminal manifest is never claimable, and
// no locked mutation rewrites one. Jobs that are absent, non-terminal,
// or too fresh report reaped=false with no error; an undecodable
// manifest is an error (the janitor should warn, not silently destroy
// evidence).
func (s *Store) ReapTerminal(id string, cutoff time.Time) (reaped bool, err error) {
	if err := ValidateID(id); err != nil {
		return false, err
	}
	unlock, _, err := s.lockJob(id)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil // already gone
		}
		return false, err
	}
	held := true
	defer func() {
		if held {
			unlock()
		}
	}()
	rel := path.Join(jobRel(id), "manifest.json")
	b, err := s.be.ReadFile(rel)
	if err != nil {
		if notExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: %w", err)
	}
	m, err := DecodeManifest(b)
	if err != nil {
		return false, err
	}
	if !m.Terminal() || m.FinishedAt == nil || m.FinishedAt.After(cutoff) {
		return false, nil
	}
	// RemoveAll deletes the lock file before the directory, so a waiter
	// in lockJob can create its own lock in the half-removed directory
	// (and AppendJournal write under it) and fail the final rmdir. Such
	// a waiter finds the job gone or terminal and leaves at once: retry.
	// If the directory still stands, put the manifest back, so the next
	// sweep can reap it. Our lock goes with the first attempt; releasing
	// it after that could delete a waiter's.
	held = false
	for i := 0; i < reapAttempts; i++ {
		if i > 0 {
			time.Sleep(2 * time.Millisecond)
		}
		if err = s.be.RemoveAll(jobRel(id)); err == nil {
			return true, nil
		}
	}
	_ = s.be.WriteAtomic(rel, b)
	return false, fmt.Errorf("store: %w", err)
}
