package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"kanon"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// Config tunes the job manager and HTTP server. The zero value is
// usable: every field has a production-shaped default.
type Config struct {
	// QueueCapacity bounds the store's queued backlog (cluster-wide on a
	// shared store); submissions beyond it are rejected with
	// ErrQueueFull (HTTP 429). Default 64.
	QueueCapacity int
	// Workers is how many jobs run concurrently. Default half the CPUs
	// (each job may itself parallelize via its Workers knob).
	Workers int
	// JobTimeout is the per-job deadline, and the ceiling for
	// client-requested timeouts. Default 5m.
	JobTimeout time.Duration
	// ResultTTL is how long a terminal job (result or error) stays
	// retrievable before the janitor evicts it. Default 15m.
	ResultTTL time.Duration
	// MaxBodyBytes bounds the CSV request body. Default 32 MiB.
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// Kernel is the distance-kernel backend for jobs whose submission
	// does not name one. The zero value (kanon.KernelAuto) lets each
	// job pick as kanon.KernelAuto says: matrix-free for the ball
	// algorithm's default cover and every block job, sized to the table
	// elsewhere. Output is identical either way.
	Kernel kanon.Kernel
	// Log receives structured job lifecycle events (with each job's ID
	// as run_id); nil is silent.
	Log *slog.Logger
	// Store is where jobs live: request, lifecycle manifest, journal,
	// trace, result spool and per-block stream checkpoints. A store on
	// disk (or replicated across peers) makes admitted work survive a
	// crash, and any number of kanond processes may share it. Nil runs
	// the same dispatcher over a private in-memory store: nothing
	// outlives the process, and a drain deadline cancels unfinished jobs
	// instead of releasing them.
	Store *store.Store
	// Recover is ignored. Recovery is the claim loop's normal behavior:
	// claiming queued jobs and expired leases, plus one release at start
	// of the jobs still leased under this node's ID.
	//
	// Deprecated: recovery can no longer be turned off; the field only
	// keeps existing Config literals compiling.
	Recover bool
	// NodeID names this manager's leases, its journal events and its
	// trace segments. Processes sharing a store need distinct IDs: they
	// then drain one queue together and steal the work of a crashed peer
	// once its leases expire. Empty holds leases under the fixed ID
	// "local", which suits a process that shares its store with no one.
	NodeID string
	// LeaseTTL is how long a claimed job's lease lasts between
	// renewals (which happen at TTL/3). It is the crash-failover knob:
	// a dead node's jobs become stealable one TTL after its last
	// renewal. Default 15s.
	LeaseTTL time.Duration
	// ClaimInterval bounds how long a node waits before re-scanning the
	// store for claimable work it was not poked about (foreign
	// submissions, expired leases). Default LeaseTTL/5, clamped to
	// [50ms, 2s].
	ClaimInterval time.Duration
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 64
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.NumCPU()/2)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.ClaimInterval <= 0 {
		c.ClaimInterval = c.LeaseTTL / 5
		if c.ClaimInterval < 50*time.Millisecond {
			c.ClaimInterval = 50 * time.Millisecond
		}
		if c.ClaimInterval > 2*time.Second {
			c.ClaimInterval = 2 * time.Second
		}
	}
	return c
}

// Admission-control errors, surfaced by Submit and mapped to HTTP
// status codes by the handlers.
var (
	// ErrQueueFull means the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the server is shutting down and no longer
	// admits work (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrStore means the job store could not persist an admitted job;
	// the job is withdrawn rather than accepted with a broken
	// durability promise (HTTP 500).
	ErrStore = errors.New("server: persisting job")
	// ErrIdempotentReplay means the submission's Idempotency-Key already
	// admitted a job; the caller should look the original up and replay
	// its acceptance instead of reporting an error.
	ErrIdempotentReplay = errors.New("server: idempotency key already used")
)

// Manager owns the job store, the claim loop that dispatches its jobs
// to a pool of worker slots, the local view of the jobs this node
// admitted or ran, and the server-wide telemetry registry. It is safe
// for concurrent use.
type Manager struct {
	cfg Config
	// st is cfg.Store, or a private in-memory store when none is
	// configured; node is the ID this manager holds leases under.
	st   *store.Store
	node string
	tr   *obs.Tracer
	// started dates the manager: claiming a job submitted before it
	// counts as a recovery.
	started time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// admit serializes admission (backlog check, store write, first
	// journal event) with other admissions and with the claim scan, so
	// concurrent submissions cannot overshoot QueueCapacity and a scan
	// never meets a local job whose admission is still in flight.
	admit sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*Job
	draining bool
	// idem maps Idempotency-Key → job ID for every key-carrying job this
	// node knows. It is the fast path and the same-node race guard;
	// misses fall back to scanning the store's manifests (which carry
	// the key durably and replicate with everything else).
	idem map[string]string
	// runningLocal holds the jobs whose run this node owns right now.
	runningLocal map[string]bool

	// The dispatcher: worker slots as a token bucket, the claim loop's
	// lifecycle channels, and the in-flight run group.
	slots       chan struct{}
	claimPoke   chan struct{}
	claimStop   chan struct{}
	claimDone   chan struct{}
	runWG       sync.WaitGroup
	janitorStop chan struct{}
	janitorDone chan struct{}

	// Hoisted instruments (obs lookup takes the registry lock); record
	// bumps the lifecycle counters from the lifecycle table.
	qDepth        *obs.Gauge
	running       *obs.Gauge
	rejected      *obs.Counter
	expired       *obs.Counter
	recovered     *obs.Counter
	blocksResumed *obs.Counter
	queueWait     *obs.Histogram
	jobDur        *obs.Histogram
	jobCost       *obs.Histogram
}

// localNode is the lease holder ID of a manager configured without a
// NodeID.
const localNode = "local"

// NewManager starts the claim loop, its worker slots and the TTL
// janitor. Every job, fresh or recovered, admitted here or by a peer,
// reaches a worker the same way: the claim loop finds it claimable in
// the store and takes a lease on it. Call Shutdown to stop.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		// Cannot fail: an empty Memory creates any directory.
		st, _ = store.OpenBackend(store.NewMemory())
	}
	node := cfg.NodeID
	if node == "" {
		node = localNode
	}
	ctx, cancel := context.WithCancel(context.Background())
	tr := obs.New()
	m := &Manager{
		cfg:           cfg,
		st:            st,
		node:          node,
		tr:            tr,
		started:       time.Now(),
		baseCtx:       ctx,
		baseCancel:    cancel,
		jobs:          make(map[string]*Job),
		idem:          make(map[string]string),
		runningLocal:  make(map[string]bool),
		slots:         make(chan struct{}, cfg.Workers),
		claimPoke:     make(chan struct{}, 1),
		claimStop:     make(chan struct{}),
		claimDone:     make(chan struct{}),
		janitorStop:   make(chan struct{}),
		janitorDone:   make(chan struct{}),
		qDepth:        tr.Gauge("server.queue_depth"),
		running:       tr.Gauge("server.jobs_running"),
		rejected:      tr.Counter("server.jobs_rejected"),
		expired:       tr.Counter("server.jobs_expired"),
		recovered:     tr.Counter("server.jobs_recovered"),
		blocksResumed: tr.Counter("server.blocks_resumed"),
		queueWait:     tr.Histogram("server.queue_wait_ns"),
		jobDur:        tr.Histogram("server.job_duration_ns"),
		jobCost:       tr.Histogram("server.job_cost"),
	}
	for _, ed := range lifecycle {
		if ed.counter != "" {
			tr.Counter(ed.counter) // registered at zero, so /metrics lists every edge
		}
	}
	tr.Gauge("server.workers").Set(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		m.slots <- struct{}{}
	}
	go m.claimLoop()
	go m.janitor()
	return m
}

// Snapshot freezes the server-wide telemetry registry — the /metrics
// and /debug/obs source. The snapshot is stamped with this node's ID
// so one scrape identifies the node without a second probe.
func (m *Manager) Snapshot() *obs.Snapshot {
	s := m.tr.Snapshot()
	s.Node = m.cfg.NodeID
	return s
}

// rememberIdem indexes an adopted job's idempotency key. Callers hold
// m.mu.
func (m *Manager) rememberIdem(j *Job) {
	if j.Req.IdempotencyKey != "" {
		m.idem[j.Req.IdempotencyKey] = j.ID
	}
}

// forget drops a job from the local view, with its idempotency key.
// Callers hold m.mu.
func (m *Manager) forget(id string, j *Job) {
	delete(m.jobs, id)
	if key := j.Req.IdempotencyKey; key != "" && m.idem[key] == id {
		delete(m.idem, key)
	}
}

// Idempotent resolves an idempotency key to the status of the job it
// admitted, if any — the replay lookup behind duplicate submissions.
// The local table answers for jobs this node has seen; misses scan the
// store's manifests, so the answer covers jobs admitted by peers
// (exactly when the directory is shared, eventually when replicated)
// and by earlier runs of this node.
func (m *Manager) Idempotent(key string) (Status, bool) {
	if key == "" {
		return Status{}, false
	}
	m.mu.Lock()
	id, ok := m.idem[key]
	m.mu.Unlock()
	if ok {
		if st, ok := m.StatusOf(id); ok {
			return st, true
		}
	}
	if man, err := m.st.FindIdempotent(key); err == nil && man != nil {
		m.mu.Lock()
		m.idem[key] = man.ID
		m.mu.Unlock()
		if st, ok := m.StatusOf(man.ID); ok {
			return st, true
		}
		return statusFromManifest(man), true
	}
	return Status{}, false
}

// reserveIdem claims a key for a submission in flight, so two racing
// duplicates cannot both admit. Returns ErrIdempotentReplay when the
// key is already bound (to a finished admission or a racing one — the
// caller re-resolves via Idempotent either way).
func (m *Manager) reserveIdem(key, id string) error {
	if key == "" {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.idem[key]; ok {
		return ErrIdempotentReplay
	}
	m.idem[key] = id
	return nil
}

// unreserveIdem releases a key whose submission failed admission.
func (m *Manager) unreserveIdem(key, id string) {
	if key == "" {
		return
	}
	m.mu.Lock()
	if m.idem[key] == id {
		delete(m.idem, key)
	}
	m.mu.Unlock()
}

// Submit admits a job: it validates the instance, then either stores
// it queued for the claim loop or rejects it with ErrQueueFull,
// ErrDraining or ErrStore. The input slices are retained; callers must
// not mutate them afterwards.
func (m *Manager) Submit(header []string, rows [][]string, req JobRequest) (*Job, error) {
	if err := validateInstance(req, len(rows)); err != nil {
		return nil, err
	}
	// Resolve the kernel default at admission so the choice is frozen
	// into the job's manifest: a recovered job re-runs with the kernel
	// it was admitted under even if the server restarts with a
	// different -kernel default.
	if !req.KernelSet {
		req.Kernel, req.KernelSet = m.cfg.Kernel, true
	}
	job := &Job{
		ID:        obs.NewRunID(),
		Req:       req,
		header:    header,
		rows:      rows,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		admitted:  true,
	}
	if err := m.reserveIdem(req.IdempotencyKey, job.ID); err != nil {
		return nil, err
	}
	m.admit.Lock()
	err := m.admitJob(job)
	m.admit.Unlock()
	if err != nil {
		m.unreserveIdem(req.IdempotencyKey, job.ID)
		m.rejected.Inc()
		return nil, err
	}
	m.pokeClaim()
	return job, nil
}

// admitJob is Submit's admission, run under m.admit: the backlog check
// against the store's queued manifests, the durable enqueue (the
// manifest IS the queue entry), the journal's first event, and only
// then the local record the claim loop will run. Since the claim scan
// also takes m.admit, a claim never precedes these, and every job
// admitted before a drain began is seen by the drain.
func (m *Manager) admitJob(job *Job) error {
	if m.Draining() {
		return ErrDraining
	}
	if depth, _ := m.ClusterDepths(); depth >= m.cfg.QueueCapacity {
		return fmt.Errorf("%w (cluster backlog %d)", ErrQueueFull, depth)
	}
	if err := m.st.CreateJob(job.manifest(), job.header, job.rows); err != nil {
		m.log(job.ID, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	m.record(job.ID, obs.JournalEvent{Event: obs.EvSubmitted, Detail: fmt.Sprintf("algo=%s k=%d rows=%d cols=%d",
		job.Req.Algorithm, job.Req.K, len(job.rows), len(job.header))})
	m.mu.Lock()
	m.jobs[job.ID] = job
	m.mu.Unlock()
	return nil
}

// Get returns the job with the given ID, if this node holds it: it was
// admitted or run here and has not expired.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// StatusOf resolves a job's status with read-through to the store. A
// job this node is running, or finished, answers from memory — after
// any commit in progress, so the manifest, the journal and the local
// state agree; a job queued here is checked against its manifest,
// since a peer may have claimed, finished or cancelled it; an ID this
// node does not hold answers from the store, so any node can answer
// for any job sharing its store.
func (m *Manager) StatusOf(id string) (Status, bool) {
	if j, ok := m.Get(id); ok {
		j.commit.Lock()
		m.mu.Lock()
		mine := m.runningLocal[id]
		m.mu.Unlock()
		st := j.Status()
		j.commit.Unlock()
		if mine || st.State.Terminal() {
			return st, true
		}
		if man, err := m.st.ReadManifest(id); err == nil && string(st.State) != man.State {
			return statusFromManifest(man), true
		}
		return st, true
	}
	if man, err := m.st.ReadManifest(id); err == nil {
		return statusFromManifest(man), true
	}
	return Status{}, false
}

// statusFromManifest renders a Status for a job this node does not
// hold — the read-through path.
func statusFromManifest(man *store.Manifest) Status {
	st := Status{
		ID:          man.ID,
		State:       State(man.State),
		K:           man.K,
		Algo:        man.Algo,
		Kernel:      man.Kernel,
		Rows:        man.Rows,
		Cols:        man.Cols,
		Cost:        man.Cost,
		Error:       man.Error,
		SubmittedAt: man.SubmittedAt,
		StartedAt:   man.StartedAt,
		FinishedAt:  man.FinishedAt,
	}
	if man.Kernel == "" {
		st.Kernel = kanon.KernelAuto.String()
	}
	st.Node = man.Node
	if man.StartedAt != nil {
		st.QueueWaitMS = man.StartedAt.Sub(man.SubmittedAt).Milliseconds()
		if man.FinishedAt != nil {
			st.DurationMS = man.FinishedAt.Sub(*man.StartedAt).Milliseconds()
		}
	}
	return st
}

// ResultBytes resolves a succeeded job's release: from memory when
// this node ran the job, else from the store's result spool (succeeded
// manifests always have one).
func (m *Manager) ResultBytes(id string) (header []string, rows [][]string, err error) {
	if j, ok := m.Get(id); ok {
		if res, ok := j.Result(); ok {
			return res.Header, res.Rows, nil
		}
	}
	return m.st.ReadResult(id)
}

// CancelByID requests a job's cancellation wherever it is. A job this
// node is running has its context cancelled and unwinds promptly,
// because every algorithm polls its context; anything else goes
// through the store, which cancels a queued job on the spot and flags
// a running one for its lease holder to notice at the next renewal.
// Terminal jobs are unaffected. The second return is false if the ID
// is unknown.
func (m *Manager) CancelByID(id string) (Status, bool) {
	if j, ok := m.Get(id); ok {
		j.mu.Lock()
		first := !j.userCanceled
		// Marked even when not running here: a claim that beats the
		// store write below then cancels its run at start.
		j.userCanceled = true
		cancel := j.cancel
		running := j.state == StateRunning && cancel != nil
		j.mu.Unlock()
		if running {
			cancel()
			if first {
				m.record(id, obs.JournalEvent{Event: obs.EvCancelRequested})
			}
			return j.Status(), true
		}
	}
	man, changed, err := m.st.RequestCancel(id, context.Canceled.Error(), time.Now())
	if err != nil {
		return Status{}, false
	}
	switch {
	case changed && man.State == store.StateRunning:
		m.record(id, obs.JournalEvent{Event: obs.EvCancelRequested, Detail: "flagged for the lease holder"})
	case changed && man.State == store.StateCanceled:
		m.record(id, obs.JournalEvent{Event: obs.EvCanceled, Detail: "while queued"})
	}
	if j, ok := m.Get(id); ok && man.State == store.StateCanceled {
		m.finish(j, StateCanceled, context.Canceled, nil, time.Now())
	}
	if st, ok := m.StatusOf(id); ok {
		return st, true
	}
	return statusFromManifest(man), true
}

// finish moves a local job to a terminal state and closes its Done
// channel; a job that already finished is left as it is.
func (m *Manager) finish(j *Job, state State, cause error, res *kanon.Result, at time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state, j.err, j.result = state, cause, res
	j.finished, j.expires = at, at.Add(m.cfg.ResultTTL)
	close(j.done)
}

// janitor evicts terminal jobs whose result TTL has expired.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	interval := m.cfg.ResultTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-tick.C:
			m.evictExpired(now)
		}
	}
}

// evictExpired drops the local records of terminal jobs past their
// expiry, then sweeps the store for expired terminal jobs: this node's,
// and those finished by peers, possibly dead ones. ReapTerminal
// re-checks the manifest under the per-job mutation lock before
// deleting: reaping and claiming serialize on the same lock, so a
// janitor whose view of a job races a concurrent claim — the
// manifest-mtime race — can never delete live work; it simply finds
// the job non-terminal and leaves it alone.
func (m *Manager) evictExpired(now time.Time) {
	m.mu.Lock()
	var evicted []*Job
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && now.After(j.expires)
		j.mu.Unlock()
		if gone {
			m.forget(id, j)
			evicted = append(evicted, j)
		}
	}
	m.mu.Unlock()
	for _, j := range evicted {
		m.expired.Inc()
		m.log(j.ID, slog.LevelDebug, "job_expired")
	}
	manifests, _, err := m.st.Jobs()
	if err != nil {
		return
	}
	cutoff := now.Add(-m.cfg.ResultTTL)
	for _, man := range manifests {
		if !man.Terminal() || man.FinishedAt == nil || man.FinishedAt.After(cutoff) {
			continue
		}
		reaped, err := m.st.ReapTerminal(man.ID, cutoff)
		if err != nil {
			m.log(man.ID, slog.LevelWarn, "job_reap_failed", slog.String("error", err.Error()))
			continue
		}
		if reaped {
			m.log(man.ID, slog.LevelDebug, "job_reaped")
		}
	}
}

// Shutdown stops admission, then drains: the claim loop keeps claiming
// and running the jobs this node admitted itself — never a peer's —
// and Shutdown returns nil once none of them is left queued or running
// here. If ctx expires first, the running jobs are cancelled. On a
// configured store they are released back to the queue, and queued
// ones stay queued, for a restart or a peer to resume; the in-memory
// store outlives nothing, so there every unfinished job is cancelled.
// Shutdown then returns ctx.Err(). Safe to call more than once.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	m.draining = true
	m.mu.Unlock()
	m.pokeClaim()
	var err error
	select {
	case <-m.claimDone:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if first {
		close(m.claimStop)
		close(m.janitorStop)
	}
	<-m.claimDone
	m.baseCancel()
	m.runWG.Wait()
	if err != nil && m.cfg.Store == nil {
		m.mu.Lock()
		var left []string
		for id, j := range m.jobs {
			if !j.Status().State.Terminal() {
				left = append(left, id)
			}
		}
		m.mu.Unlock()
		for _, id := range left {
			m.CancelByID(id)
		}
	}
	<-m.janitorDone
	return err
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// JobCounts returns the number of jobs this node holds and how many of
// them are queued or running — the /healthz payload.
func (m *Manager) JobCounts() (total, active int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			active++
		}
		j.mu.Unlock()
	}
	return len(m.jobs), active
}

// Health is the /healthz payload: liveness plus the capacity picture a
// front-end router balances on. Jobs/Active count the jobs this node
// holds (the legacy payload); Capacity/Free/Running describe this
// node's worker pool; Queued/Claimed are the backlog read from the
// store — cluster-wide when the store is shared.
type Health struct {
	Status string `json:"status"`
	Node   string `json:"node,omitempty"`
	// Version is the node's build identity (module version, VCS
	// revision, Go toolchain) so cluster health surfaces mixed-version
	// deployments.
	Version  string `json:"version,omitempty"`
	Jobs     int    `json:"jobs"`
	Active   int    `json:"active"`
	Capacity int    `json:"capacity"`
	Free     int    `json:"free"`
	Running  int    `json:"running"`
	Queued   int    `json:"queued"`
	Claimed  int    `json:"claimed"`
}

// buildVersion is the process's build identity, read once — ReadBuild
// walks the embedded build info on every call.
var buildVersion = obs.ReadBuild().String()

// Health snapshots the node for /healthz.
func (m *Manager) Health() Health {
	total, active := m.JobCounts()
	h := Health{Status: "ok", Node: m.cfg.NodeID, Version: buildVersion, Jobs: total, Active: active,
		Capacity: m.cfg.Workers, Free: len(m.slots)}
	if m.Draining() {
		h.Status = "draining"
	}
	m.mu.Lock()
	h.Running = len(m.runningLocal)
	m.mu.Unlock()
	h.Queued, h.Claimed = m.ClusterDepths()
	return h
}

// ClusterDepths scans the store for its queue picture: queued (the
// unclaimed backlog) and claimed (running under a live or expired
// lease, on any node sharing the store).
func (m *Manager) ClusterDepths() (queued, claimed int) {
	manifests, _, err := m.st.Jobs()
	if err != nil {
		return 0, 0 // admission stays open if the scan hiccups; the store write fails loudly instead
	}
	for _, man := range manifests {
		switch man.State {
		case store.StateQueued:
			queued++
		case store.StateRunning:
			claimed++
		}
	}
	return queued, claimed
}

// log emits one structured line with the job ID, when there is one, as
// run_id. Lifecycle edges do not come here directly: record derives
// their lines from the journal event.
func (m *Manager) log(id string, level slog.Level, msg string, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	if id != "" {
		attrs = append([]slog.Attr{slog.String("run_id", id)}, attrs...)
	}
	m.cfg.Log.LogAttrs(context.Background(), level, msg, attrs...)
}
