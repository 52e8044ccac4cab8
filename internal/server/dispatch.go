// The dispatcher: lease-based job claiming over the job store.
//
// Every manager runs one claim loop against its store, and it is the
// only way a job reaches a worker: the manifests ARE the queue. A
// manager without a configured store runs the loop over a private
// in-memory store under the lease holder ID "local"; N kanond
// processes sharing a data directory (or replicating one) run it over
// the shared manifests and drain one backlog together. Each node claims
// the oldest claimable job (queued, or running with an expired lease —
// crash-failover work stealing), runs it under a lease it renews at
// TTL/3, and commits every persisted transition through the store's
// fenced operations, so a node that lost its lease can never clobber
// the new owner's state. Recovery is claiming: jobs a crash left queued
// are claimed like fresh ones, and stolen or restarted stream jobs
// resume from the committed block checkpoints, byte-identically —
// block bounds and per-block algorithms are deterministic, so the
// release never depends on which node (or how many, across a steal)
// computed it.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// pokeClaim nudges the claim loop without blocking — called after a
// local submission and after a slot frees, so claims happen at those
// edges instead of waiting out the poll interval.
func (m *Manager) pokeClaim() {
	select {
	case m.claimPoke <- struct{}{}:
	default:
	}
}

// claimLoop is the dispatcher, one goroutine per manager. After
// releasing the leases an earlier run of this node left behind, it
// scans the store on every wake-up: a submission or a freed slot (both
// poke), or a tick that bounds how long a peer's job or an expired
// lease waits to be noticed. It exits on claimStop, or once a draining
// node has nothing of its own left to run.
func (m *Manager) claimLoop() {
	defer close(m.claimDone)
	m.releaseOwnLeases()
	tick := time.NewTicker(m.cfg.ClaimInterval)
	defer tick.Stop()
	for !m.claimAvailable() {
		select {
		case <-m.claimStop:
			return
		case <-m.claimPoke:
		case <-tick.C:
		}
	}
}

// releaseOwnLeases hands back, once at start, the jobs still leased
// under this node's ID. An earlier run of the process held them, and
// no renewal will extend those leases again; released, they are queued
// and claimed at once — by this node's first scan, or a peer's —
// instead of after LeaseTTL.
func (m *Manager) releaseOwnLeases() {
	manifests, _, err := m.st.Jobs()
	if err != nil {
		return // the first claim scan reports the store's trouble
	}
	for _, man := range manifests {
		if man.State != store.StateRunning || man.Claim == nil || man.Claim.Node != m.node {
			continue
		}
		if _, err := m.st.ReleaseJob(man.ID, m.node, man.Fence); err != nil {
			continue // stolen meanwhile, or a store hiccup: the lease expires as usual
		}
		m.record(man.ID, obs.JournalEvent{Event: obs.EvLeaseReleased, Fence: man.Fence,
			Detail: "restart: released by an earlier run of this node"})
	}
}

// claimAvailable is one claim scan. It settles the local copies of
// jobs that finished elsewhere, publishes the queue depth, and claims
// claimable jobs, oldest submission first, while worker slots are
// free. It reports whether a draining node has nothing of its own left
// to run.
func (m *Manager) claimAvailable() (drained bool) {
	draining := m.Draining()
	m.admit.Lock()
	manifests, _, err := m.st.Jobs()
	m.admit.Unlock()
	if err != nil {
		m.log("", slog.LevelWarn, "claim_scan_failed", slog.String("error", err.Error()))
		return false
	}
	now := time.Now()
	m.settleMirrors(manifests, now)
	queued, left := 0, 0
	for _, man := range manifests {
		if man.State == store.StateQueued {
			queued++
		}
		if !m.claimable(man, now, draining) {
			continue
		}
		select {
		case <-m.slots:
		default:
			left++ // all workers busy
			continue
		}
		if !m.claimOne(man, now) {
			m.slots <- struct{}{}
			continue
		}
		if man.State == store.StateQueued {
			queued--
		}
	}
	m.qDepth.Set(int64(queued))
	m.mu.Lock()
	running := len(m.runningLocal)
	m.mu.Unlock()
	return draining && left == 0 && running == 0
}

// claimable reports whether this node may claim the job now: queued,
// or running under an expired (or absent) lease, and not already
// running here — a node never steals from itself; its own renewal loop
// arbitrates its leases. A draining node claims only jobs it admitted.
func (m *Manager) claimable(man *store.Manifest, now time.Time, draining bool) bool {
	if !man.Recoverable() {
		return false
	}
	if man.State == store.StateRunning && man.Claim != nil && now.Before(man.Claim.Expires) {
		return false // live lease
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runningLocal[man.ID] {
		return false
	}
	if draining {
		j, ok := m.jobs[man.ID]
		return ok && j.admitted
	}
	return true
}

// settleMirrors brings the local copies of jobs this node is not
// running in line with the store. A copy whose job finished elsewhere
// turns terminal, closing Done, and is dropped so StatusOf answers
// from the manifest; a copy whose manifest is gone past the result TTL
// is dropped too.
func (m *Manager) settleMirrors(manifests []*store.Manifest, now time.Time) {
	byID := make(map[string]*store.Manifest, len(manifests))
	for _, man := range manifests {
		byID[man.ID] = man
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		if m.runningLocal[id] {
			continue
		}
		j.mu.Lock()
		live, submitted := !j.state.Terminal(), j.submitted
		j.mu.Unlock()
		if !live {
			continue // finished here: the janitor expires it
		}
		man, ok := byID[id]
		switch {
		case ok && man.Terminal():
			var cause error
			if man.Error != "" {
				cause = errors.New(man.Error)
			}
			at := now
			if man.FinishedAt != nil {
				at = *man.FinishedAt
			}
			m.finish(j, State(man.State), cause, nil, at)
			m.forget(id, j)
		case !ok && now.Sub(submitted) > m.cfg.ResultTTL:
			m.forget(id, j)
		}
	}
}

// claimOne claims one claimable job and launches its run, reporting
// whether it did. A claim that finds a cancellation request, or a job
// it cannot run, settles the job on the store instead.
func (m *Manager) claimOne(man *store.Manifest, now time.Time) bool {
	claimed, stolen, err := m.st.ClaimJob(man.ID, m.node, m.cfg.LeaseTTL, now)
	if err != nil {
		return false // lost the race, job reaped, or store hiccup — move on
	}
	if stolen {
		// Journal the failover edge: whose lease lapsed, who took over.
		// The pre-claim manifest names the old owner; record stamps the
		// stolen event with this node.
		oldNode := man.Node
		if man.Claim != nil {
			oldNode = man.Claim.Node
		}
		m.record(man.ID, obs.JournalEvent{Event: obs.EvLeaseExpired, Node: oldNode, Fence: man.Fence})
		m.record(man.ID, obs.JournalEvent{Event: obs.EvLeaseStolen, Fence: claimed.Fence,
			Detail: fmt.Sprintf("from %s", oldNode)})
	}
	if claimed.CancelRequested {
		// A cancellation landed while the job sat unclaimed; honor it
		// instead of running doomed work.
		m.finalizeClaimedCancel(man.ID, claimed.Fence, now)
		return false
	}
	job, err := m.adoptJob(claimed)
	if err != nil {
		// We hold the claim but cannot run the job (request spool
		// unreadable). Fail it durably rather than releasing it into
		// an endless claim/fail ping-pong across the cluster.
		m.failClaimOnDisk(claimed, err)
		return false
	}
	if man.SubmittedAt.Before(m.started) {
		m.recovered.Inc()
		m.log(job.ID, slog.LevelInfo, "job_recovered",
			slog.String("algo", job.Req.Algorithm.String()), slog.Int("k", job.Req.K),
			slog.Int("rows", len(job.rows)))
	}
	m.mu.Lock()
	m.runningLocal[job.ID] = true
	m.mu.Unlock()
	m.runWG.Add(1)
	go m.runClaimed(job, claimed)
	return true
}

// adoptJob returns the in-memory job for a claimed manifest, building
// one from the request spool when the job was submitted on another node
// (or by an earlier run of this one).
func (m *Manager) adoptJob(man *store.Manifest) (*Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[man.ID]
	m.mu.Unlock()
	if ok {
		return j, nil
	}
	header, rows, err := m.st.ReadRequest(man.ID)
	if err != nil {
		return nil, err
	}
	req, err := requestFromManifest(man)
	if err != nil {
		return nil, err
	}
	j = &Job{
		ID:        man.ID,
		Req:       req,
		header:    header,
		rows:      rows,
		state:     StateQueued,
		submitted: man.SubmittedAt,
		done:      make(chan struct{}),
	}
	m.mu.Lock()
	m.jobs[man.ID] = j
	m.rememberIdem(j)
	m.mu.Unlock()
	return j, nil
}

// finalizeClaimedCancel commits a claimed-then-found-cancelled job to
// its terminal state, on the store and (if held locally) in memory.
func (m *Manager) finalizeClaimedCancel(id string, fence uint64, now time.Time) {
	_, err := m.st.UpdateClaimed(id, m.node, fence, func(sm *store.Manifest) error {
		sm.State = store.StateCanceled
		sm.Error = context.Canceled.Error()
		t := now
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.log(id, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
		return
	}
	m.record(id, obs.JournalEvent{Event: obs.EvCanceled, Fence: fence,
		Detail: "cancel requested before the job ran"})
	if j, ok := m.Get(id); ok {
		m.finish(j, StateCanceled, context.Canceled, nil, now)
	}
}

// failClaimOnDisk marks a claimed-but-unrunnable job failed so it stops
// being claimable.
func (m *Manager) failClaimOnDisk(man *store.Manifest, cause error) {
	reason := fmt.Sprintf("unrunnable on %s: %v", m.node, cause)
	_, err := m.st.UpdateClaimed(man.ID, m.node, man.Fence, func(sm *store.Manifest) error {
		sm.State = store.StateFailed
		sm.Error = reason
		t := time.Now()
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.log(man.ID, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
		return
	}
	m.record(man.ID, obs.JournalEvent{Event: obs.EvFailed, Fence: man.Fence, Detail: reason})
}

// runClaimed executes one claimed job end to end under its lease:
// in-memory transition, renewal ticker, the anonymization itself, and
// the fenced terminal commit. Every outcome that is not "we still own
// the lease and finished" degrades safely: a lost lease discards local
// state (the thief owns the job now), and a drain deadline on a
// configured store releases the job back to the queue.
func (m *Manager) runClaimed(job *Job, man *store.Manifest) {
	defer m.runWG.Done()
	fence := man.Fence
	timeout := m.cfg.JobTimeout
	if job.Req.Timeout > 0 && job.Req.Timeout < timeout {
		timeout = job.Req.Timeout
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	defer cancel()
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.claimNode = m.node
	if job.userCanceled {
		cancel() // a DELETE raced the claim
	}
	wait := job.started.Sub(job.submitted)
	job.mu.Unlock()

	m.running.Add(1)
	m.queueWait.ObserveDuration(wait)
	root := m.startJobObs(job)
	m.record(job.ID, obs.JournalEvent{Event: obs.EvClaimed, Fence: fence,
		Detail: fmt.Sprintf("algo=%s k=%d queue_wait=%s", job.Req.Algorithm, job.Req.K, wait)})
	m.record(job.ID, obs.JournalEvent{Event: obs.EvPhaseBegin, Phase: "anonymize"})

	var lost, userCancel atomic.Bool
	renewStop := make(chan struct{})
	renewDone := make(chan struct{})
	go m.renewLoop(job, fence, cancel, &lost, &userCancel, renewStop, renewDone)

	res, resumed, err := m.execute(ctx, job, fence, root)
	close(renewStop)
	<-renewDone

	m.record(job.ID, obs.JournalEvent{Event: obs.EvPhaseEnd, Phase: "anonymize"})
	// The final flush is fenced: after a loss the thief owns trace.json,
	// and the store refuses this node's late write instead of letting it
	// overwrite the thief's fuller view.
	finalTrace := m.finishJobObs(job, root, fence)
	if err == nil && job.Req.Trace && finalTrace != nil {
		res.Stats = finalTrace
	}

	job.mu.Lock()
	userCanceled := job.userCanceled || userCancel.Load()
	job.mu.Unlock()

	job.commit.Lock()
	defer job.commit.Unlock()
	switch {
	case err == nil:
		m.commitSuccess(job, fence, res, resumed)
	case errors.Is(err, context.Canceled) && lost.Load():
		m.abandon(job)
	case errors.Is(err, context.Canceled) && !userCanceled && m.cfg.Store != nil:
		// Drain deadline: hand the job back for a restart or a peer.
		m.releaseClaimed(job, fence)
	case errors.Is(err, context.Canceled):
		m.commitTerminal(job, fence, StateCanceled, err)
	default:
		// Deadline exhaustion and instance errors both land here; the
		// error text tells them apart.
		m.commitTerminal(job, fence, StateFailed, err)
	}
}

// execute runs the job's anonymization under ctx: the facade for
// whole-table jobs, the bounded-memory stream pipeline for block jobs.
// The second return is how many stream blocks were replayed from the
// job's checkpoints instead of recomputed. The compute attaches its
// phase tree under the run's root span, and checkpoints journal their
// commits and resumes; the release is byte-identical either way.
func (m *Manager) execute(ctx context.Context, job *Job, fence uint64, root *obs.Span) (*kanon.Result, int, error) {
	req := job.Req
	if req.BlockRows > 0 {
		c, err := m.st.Checkpoint(job.ID, job.header)
		if err != nil {
			return nil, 0, err
		}
		ckpt := &journalCheckpoint{inner: c, m: m, job: job, fence: fence}
		return kanon.AnonymizeBlocks(ctx, job.header, job.rows, req.K, req.BlockRows, &kanon.Options{
			Kernel: req.Kernel, Refine: req.Refine, Workers: req.Workers, Log: m.cfg.Log, Span: root,
		}, ckpt)
	}
	res, err := kanon.AnonymizeContext(ctx, job.header, job.rows, req.K, &kanon.Options{
		Algorithm:   req.Algorithm,
		Kernel:      req.Kernel,
		Seed:        req.Seed,
		Refine:      req.Refine,
		Workers:     req.Workers,
		Hierarchy:   req.HierarchySpec,
		MaxSuppress: req.MaxSuppress,
		Log:         m.cfg.Log,
		Span:        root, // per-job tracer; Stats come from its snapshot
	})
	return res, 0, err
}

// renewLoop extends the job's lease at TTL/3 until stopped. A fenced
// renewal means the lease was stolen: the loop flags the loss and
// cancels the run so the stale node stops burning CPU on work it no
// longer owns. Renewals also carry back cross-node cancellation
// requests. Transient store errors are logged and retried — the lease
// survives until its deadline, so one slow fsync does not forfeit it.
func (m *Manager) renewLoop(job *Job, fence uint64, cancel context.CancelFunc, lost, userCancel *atomic.Bool, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := m.cfg.LeaseTTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		man, err := m.st.RenewLease(job.ID, m.node, fence, m.cfg.LeaseTTL, time.Now())
		if errors.Is(err, store.ErrFenced) {
			lost.Store(true)
			m.record(job.ID, obs.JournalEvent{Event: obs.EvLeaseLost, Fence: fence})
			cancel()
			return
		}
		if err != nil {
			m.log(job.ID, slog.LevelWarn, "lease_renew_failed", slog.String("error", err.Error()))
			continue
		}
		m.record(job.ID, obs.JournalEvent{Event: obs.EvLeaseRenewed, Fence: fence})
		if man.CancelRequested && !userCancel.Load() {
			userCancel.Store(true)
			m.record(job.ID, obs.JournalEvent{Event: obs.EvCancelRequested, Fence: fence})
			cancel()
			// Keep renewing: holding the lease through the unwind stops a
			// peer from stealing a job that is about to be cancelled.
		}
	}
}

// commitSuccess spools the result and flips the manifest to succeeded
// under the fence, then settles the run. The result is spooled before
// the manifest flip (a succeeded manifest always has a readable
// result); a fenced commit downgrades the whole outcome to "lost" — the
// thief is authoritative now, and since jobs are deterministic its
// result is byte-identical to ours anyway.
func (m *Manager) commitSuccess(job *Job, fence uint64, res *kanon.Result, resumed int) {
	if err := m.st.WriteResult(job.ID, res.Header, res.Rows); err != nil {
		// Lease intact but the spool failed: leave the manifest running —
		// durability degraded to retry, not to a phantom result.
		m.commitFailed(job, fence, err)
		return
	}
	now := time.Now()
	_, err := m.st.UpdateClaimed(job.ID, m.node, fence, func(sm *store.Manifest) error {
		sm.State = store.StateSucceeded
		c := res.Cost
		sm.Cost = &c
		t := now
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.commitFailed(job, fence, err)
		return
	}
	job.mu.Lock()
	dur := now.Sub(job.started)
	job.mu.Unlock()
	m.record(job.ID, obs.JournalEvent{Event: obs.EvSucceeded, Fence: fence,
		Detail: fmt.Sprintf("cost=%d wall=%s blocks_resumed=%d", res.Cost, dur, resumed)})
	m.jobDur.ObserveDuration(dur)
	m.jobCost.Observe(int64(res.Cost))
	m.blocksResumed.Add(int64(resumed))
	m.endRun(job, StateSucceeded, nil, res, now)
}

// commitTerminal commits a failed or canceled outcome under the fence,
// then settles the run.
func (m *Manager) commitTerminal(job *Job, fence uint64, state State, cause error) {
	now := time.Now()
	_, err := m.st.UpdateClaimed(job.ID, m.node, fence, func(sm *store.Manifest) error {
		sm.State = string(state)
		sm.Error = cause.Error()
		t := now
		sm.FinishedAt = &t
		return nil
	})
	if err != nil {
		m.commitFailed(job, fence, err)
		return
	}
	job.mu.Lock()
	dur := now.Sub(job.started)
	job.mu.Unlock()
	// The terminal events are spelled like the states.
	m.record(job.ID, obs.JournalEvent{Event: string(state), Fence: fence, Detail: fmt.Sprintf("%v wall=%s", cause, dur)})
	m.jobDur.ObserveDuration(dur)
	m.endRun(job, state, cause, nil, now)
}

// commitFailed handles a terminal commit the store refused. Fenced, the
// job belongs to a thief now; otherwise the manifest still says running
// under this node's lease, and the job is re-run once it is reclaimed
// (deterministically, to the same outcome). Either way the run ends
// without a local terminal state, so the manifest and memory never
// disagree about whether the job finished.
func (m *Manager) commitFailed(job *Job, fence uint64, err error) {
	if errors.Is(err, store.ErrFenced) {
		m.record(job.ID, obs.JournalEvent{Event: obs.EvLeaseLost, Fence: fence})
	} else {
		m.log(job.ID, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
	}
	m.abandon(job)
}

// releaseClaimed hands a job this node cannot finish (drain deadline)
// back to the queue: state queued, claim cleared, fenced so the release
// cannot clobber a faster thief.
func (m *Manager) releaseClaimed(job *Job, fence uint64) {
	_, err := m.st.ReleaseJob(job.ID, m.node, fence)
	switch {
	case errors.Is(err, store.ErrFenced):
		m.record(job.ID, obs.JournalEvent{Event: obs.EvLeaseLost, Fence: fence})
	case err != nil:
		m.log(job.ID, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
	default:
		m.record(job.ID, obs.JournalEvent{Event: obs.EvLeaseReleased, Fence: fence,
			Detail: "drain: released back to the queue"})
	}
	m.abandon(job)
}

// abandon ends a run whose job this node no longer holds: in memory it
// goes back to queued (the manifest is authoritative, and StatusOf
// reads through to it), nothing is written to the store, and Done
// stays open — the job is not finished, it is just no longer ours.
func (m *Manager) abandon(job *Job) {
	m.log(job.ID, slog.LevelInfo, "job_abandoned")
	m.endRun(job, "", nil, nil, time.Time{})
}

// endRun closes a run. The worker slot and the runningLocal entry go
// back first; then the local job settles — terminal, closing Done, or
// back to queued when state is empty. Callers have already committed
// the manifest and journaled the outcome, so a Done waiter, or a
// poller that sees the terminal state, finds both written and the slot
// free.
func (m *Manager) endRun(job *Job, state State, cause error, res *kanon.Result, at time.Time) {
	m.running.Add(-1)
	m.mu.Lock()
	delete(m.runningLocal, job.ID)
	m.slots <- struct{}{}
	if state != "" {
		m.finish(job, state, cause, res, at)
	} else {
		job.mu.Lock()
		job.state, job.started, job.cancel, job.claimNode = StateQueued, time.Time{}, nil, ""
		job.mu.Unlock()
	}
	m.mu.Unlock()
	m.pokeClaim()
}
