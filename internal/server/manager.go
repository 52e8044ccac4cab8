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
	"kanon/internal/stream"
)

// Config tunes the job manager and HTTP server. The zero value is
// usable: every field has a production-shaped default.
type Config struct {
	// QueueCapacity bounds the FIFO admission queue; submissions beyond
	// it are rejected with ErrQueueFull (HTTP 429). Default 64.
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
	// does not name one. The zero value (kanon.KernelAuto) sizes the
	// choice to each job's table; output is identical either way.
	Kernel kanon.Kernel
	// Log receives structured job lifecycle events (with each job's ID
	// as run_id); nil is silent.
	Log *slog.Logger
	// Store, when non-nil, persists every job to disk (request bytes,
	// lifecycle manifest, result spool, and per-block checkpoints for
	// stream jobs), so admitted work survives a crash. Nil keeps the
	// in-memory-only behavior.
	Store *store.Store
	// Recover, with a Store, re-admits jobs found queued or running on
	// disk at startup: they re-enter the queue (in original admission
	// order, ahead of capacity limits) and stream jobs resume from
	// their last completed block checkpoint. Terminal jobs are reloaded
	// so their status and results stay retrievable across restarts.
	// Cluster mode (NodeID set) supersedes this: recovery there is the
	// claim loop's normal behavior, running continuously instead of
	// once at startup.
	Recover bool
	// NodeID, with a Store, switches the manager to cluster mode: the
	// on-disk manifests become the queue, jobs are claimed under
	// renewable leases with fencing tokens, and any number of kanond
	// processes with distinct NodeIDs sharing the data directory drain
	// the backlog together, stealing work from crashed peers once their
	// leases expire. Empty keeps the single-node in-memory dispatch.
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

// Manager owns the job queue, the worker pool, the in-memory result
// store, and the server-wide telemetry registry. It is safe for
// concurrent use.
type Manager struct {
	cfg Config
	tr  *obs.Tracer

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	draining bool
	// idem maps Idempotency-Key → job ID for every key-carrying job this
	// node knows. It is the fast path and the same-node race guard;
	// cluster-wide lookups additionally scan the store's manifests
	// (which carry the key durably and replicate with everything else).
	idem map[string]string

	workerWG    sync.WaitGroup
	janitorStop chan struct{}
	janitorDone chan struct{}

	// Cluster-mode runtime (nil / unused outside cluster mode): worker
	// slots as a token bucket, the claim loop's lifecycle channels, the
	// set of jobs running on this node, and the in-flight run group.
	slots        chan struct{}
	claimPoke    chan struct{}
	claimStop    chan struct{}
	claimDone    chan struct{}
	runningLocal map[string]bool
	runWG        sync.WaitGroup

	// Hoisted instruments (obs lookup takes the registry lock).
	qDepth        *obs.Gauge
	running       *obs.Gauge
	submitted     *obs.Counter
	succeeded     *obs.Counter
	failed        *obs.Counter
	canceled      *obs.Counter
	rejected      *obs.Counter
	expired       *obs.Counter
	recovered     *obs.Counter
	blocksResumed *obs.Counter
	queueWait     *obs.Histogram
	jobDur        *obs.Histogram
	jobCost       *obs.Histogram

	// Lease instruments (cluster mode).
	leasesClaimed  *obs.Counter
	leasesStolen   *obs.Counter
	leasesRenewed  *obs.Counter
	leasesLost     *obs.Counter
	leasesReleased *obs.Counter
}

// NewManager starts the worker pool and the TTL janitor. When the
// config carries a Store with Recover set, jobs found queued or running
// on disk are re-admitted before the workers start — the queue is sized
// to hold the whole recovered backlog even past QueueCapacity, so a
// restart never sheds work it already accepted. In cluster mode
// (Store + NodeID) the channel dispatch is replaced by the claim loop:
// no startup recovery pass is needed, because claiming queued jobs and
// stealing expired leases IS recovery, running continuously. Call
// Shutdown to stop.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()

	// Scan the store before sizing the queue: the recovered backlog
	// must fit even if it exceeds the configured capacity.
	var recoverable, terminal []*Job
	if cfg.Store != nil && cfg.Recover && !cfg.cluster() {
		recoverable, terminal = loadPersistedJobs(cfg)
	}
	queueCap := cfg.QueueCapacity
	if len(recoverable) > queueCap {
		queueCap = len(recoverable)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tr := obs.New()
	m := &Manager{
		cfg:            cfg,
		tr:             tr,
		baseCtx:        ctx,
		baseCancel:     cancel,
		jobs:           make(map[string]*Job),
		idem:           make(map[string]string),
		janitorStop:    make(chan struct{}),
		janitorDone:    make(chan struct{}),
		qDepth:         tr.Gauge("server.queue_depth"),
		running:        tr.Gauge("server.jobs_running"),
		submitted:      tr.Counter("server.jobs_submitted"),
		succeeded:      tr.Counter("server.jobs_succeeded"),
		failed:         tr.Counter("server.jobs_failed"),
		canceled:       tr.Counter("server.jobs_canceled"),
		rejected:       tr.Counter("server.jobs_rejected"),
		expired:        tr.Counter("server.jobs_expired"),
		recovered:      tr.Counter("server.jobs_recovered"),
		blocksResumed:  tr.Counter("server.blocks_resumed"),
		queueWait:      tr.Histogram("server.queue_wait_ns"),
		jobDur:         tr.Histogram("server.job_duration_ns"),
		jobCost:        tr.Histogram("server.job_cost"),
		leasesClaimed:  tr.Counter("server.leases_claimed"),
		leasesStolen:   tr.Counter("server.leases_stolen"),
		leasesRenewed:  tr.Counter("server.leases_renewed"),
		leasesLost:     tr.Counter("server.leases_lost"),
		leasesReleased: tr.Counter("server.leases_released"),
	}
	tr.Gauge("server.workers").Set(int64(cfg.Workers))
	if cfg.cluster() {
		m.slots = make(chan struct{}, cfg.Workers)
		for i := 0; i < cfg.Workers; i++ {
			m.slots <- struct{}{}
		}
		m.claimPoke = make(chan struct{}, 1)
		m.claimStop = make(chan struct{})
		m.claimDone = make(chan struct{})
		m.runningLocal = make(map[string]bool)
		go m.claimLoop()
		go m.janitor()
		return m
	}
	m.queue = make(chan *Job, queueCap)
	for _, j := range terminal {
		m.jobs[j.ID] = j
		m.rememberIdem(j)
	}
	for _, j := range recoverable {
		m.jobs[j.ID] = j
		m.rememberIdem(j)
		m.queue <- j // cannot block: the queue was sized for the backlog
		m.qDepth.Add(1)
		m.recovered.Inc()
		m.persist(j) // running → queued: the disk state follows the re-admission
		m.log(j, slog.LevelInfo, "job_recovered",
			slog.String("algo", j.Req.Algorithm.String()), slog.Int("k", j.Req.K),
			slog.Int("rows", len(j.rows)))
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workerWG.Add(1)
		go m.worker()
	}
	go m.janitor()
	return m
}

// loadPersistedJobs turns the store's manifests back into jobs: queued
// and running manifests become re-admittable (queued) jobs, terminal
// manifests become finished jobs whose status and results stay
// retrievable. Directories that cannot be decoded or replayed are
// logged and skipped — recovery is best-effort per job, never
// all-or-nothing.
func loadPersistedJobs(cfg Config) (recoverable, terminal []*Job) {
	warn := func(id, problem string, err error) {
		if cfg.Log != nil {
			cfg.Log.LogAttrs(context.Background(), slog.LevelWarn, "job_recovery_skipped",
				slog.String("run_id", id), slog.String("problem", problem), slog.String("error", err.Error()))
		}
	}
	manifests, skipped, err := cfg.Store.Jobs()
	if err != nil {
		warn("", "scanning store", err)
		return nil, nil
	}
	for _, name := range skipped {
		warn(name, "undecodable job directory", errors.New("manifest missing or invalid"))
	}
	for _, man := range manifests {
		req, err := requestFromManifest(man)
		if err != nil {
			warn(man.ID, "manifest request", err)
			continue
		}
		job := &Job{
			ID:        man.ID,
			Req:       req,
			state:     State(man.State),
			submitted: man.SubmittedAt,
			done:      make(chan struct{}),
		}
		if man.StartedAt != nil {
			job.started = *man.StartedAt
		}
		if man.FinishedAt != nil {
			job.finished = *man.FinishedAt
		}
		if man.Recoverable() {
			header, rows, err := cfg.Store.ReadRequest(man.ID)
			if err != nil {
				warn(man.ID, "request spool", err)
				continue
			}
			job.header, job.rows = header, rows
			job.state = StateQueued // a crashed running job re-enters the queue
			job.started = time.Time{}
			recoverable = append(recoverable, job)
			continue
		}
		// Terminal job: status (and, for successes, the result spool)
		// stays retrievable until its TTL, clocked from when it finished.
		job.expires = job.finished.Add(cfg.ResultTTL)
		// Size-only placeholders: Status reports the request's shape.
		job.header = make([]string, man.Cols)
		job.rows = make([][]string, man.Rows)
		if man.Error != "" {
			job.err = errors.New(man.Error)
		}
		if man.State == store.StateSucceeded {
			header, rows, err := cfg.Store.ReadResult(man.ID)
			if err != nil {
				warn(man.ID, "result spool", err)
				continue
			}
			cost := 0
			if man.Cost != nil {
				cost = *man.Cost
			}
			job.result = &kanon.Result{K: man.K, Header: header, Rows: rows, Cost: cost}
		}
		close(job.done)
		terminal = append(terminal, job)
	}
	return recoverable, terminal
}

// persist mirrors the job's current lifecycle state to the store.
// Best-effort after admission: for a live process the in-memory state
// is authoritative and the manifest exists for the next process, so a
// failed write degrades durability, not correctness — loudly.
func (m *Manager) persist(j *Job) {
	if m.cfg.Store == nil {
		return
	}
	if err := m.cfg.Store.WriteManifest(j.manifest()); err != nil {
		m.log(j, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
	}
}

// Snapshot freezes the server-wide telemetry registry — the /metrics
// and /debug/obs source. The snapshot is stamped with this node's ID
// so one scrape identifies the node without a second probe.
func (m *Manager) Snapshot() *obs.Snapshot {
	s := m.tr.Snapshot()
	s.Node = m.cfg.NodeID
	return s
}

// rememberIdem indexes a recovered or adopted job's idempotency key.
// Held-lock-free: call outside m.mu only at startup, else under it.
func (m *Manager) rememberIdem(j *Job) {
	if j.Req.IdempotencyKey != "" {
		m.idem[j.Req.IdempotencyKey] = j.ID
	}
}

// Idempotent resolves an idempotency key to the status of the job it
// admitted, if any — the replay lookup behind duplicate submissions.
// The local table answers for jobs this node has seen; cluster mode
// falls back to scanning the store's manifests, so the answer covers
// jobs admitted by peers (exactly when the directory is shared,
// eventually when replicated).
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
	if m.cfg.Store != nil {
		if man, err := m.cfg.Store.FindIdempotent(key); err == nil && man != nil {
			m.mu.Lock()
			m.idem[key] = man.ID
			m.mu.Unlock()
			if st, ok := m.StatusOf(man.ID); ok {
				return st, true
			}
			return statusFromManifest(man), true
		}
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

// Submit admits a job: it validates the instance, then either enqueues
// it (FIFO) or rejects it with ErrQueueFull / ErrDraining. The input
// slices are retained; callers must not mutate them afterwards.
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
	}
	if err := m.reserveIdem(req.IdempotencyKey, job.ID); err != nil {
		return nil, err
	}
	if m.cfg.cluster() {
		j, err := m.submitCluster(job)
		if err != nil {
			m.unreserveIdem(req.IdempotencyKey, job.ID)
		}
		return j, err
	}
	// Persist before the job becomes visible to workers: otherwise a
	// fast worker's "running" manifest could be overwritten by this
	// initial "queued" snapshot, leaving the disk behind reality. A
	// rejection below unwinds the directory; a crash between the write
	// and the enqueue recovers a job the client never got a 202 for —
	// at-least-once admission, which deterministic jobs make harmless.
	if m.cfg.Store != nil {
		if err := m.cfg.Store.CreateJob(job.manifest(), header, rows); err != nil {
			m.rejected.Inc()
			m.unreserveIdem(req.IdempotencyKey, job.ID)
			m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", err.Error()))
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
		m.journal(job.ID).Record(obs.JournalEvent{Event: obs.EvSubmitted,
			Detail: fmt.Sprintf("algo=%s k=%d rows=%d", req.Algorithm, req.K, len(rows))})
	}
	unwind := func() {
		m.unreserveIdem(req.IdempotencyKey, job.ID)
		if m.cfg.Store != nil {
			if err := m.cfg.Store.Delete(job.ID); err != nil {
				m.log(job, slog.LevelWarn, "job_reap_failed", slog.String("error", err.Error()))
			}
		}
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.rejected.Inc()
		unwind()
		return nil, ErrDraining
	}
	select {
	case m.queue <- job:
		m.jobs[job.ID] = job
	default:
		m.mu.Unlock()
		m.rejected.Inc()
		unwind()
		return nil, ErrQueueFull
	}
	m.mu.Unlock()
	m.qDepth.Add(1)
	m.submitted.Inc()
	m.log(job, slog.LevelInfo, "job_queued",
		slog.Int("k", req.K), slog.String("algo", req.Algorithm.String()),
		slog.Int("rows", len(rows)), slog.Int("cols", len(header)))
	return job, nil
}

// Get returns the job with the given ID, if it is still stored.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A queued job transitions to
// canceled immediately (its queue slot is discarded when a worker
// reaches it); a running job has its context cancelled and transitions
// once the compute layer unwinds — promptly, because every algorithm
// polls its context. Terminal jobs are unaffected. The second return
// is false if the ID is unknown.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = context.Canceled
		j.finished = time.Now()
		j.expires = j.finished.Add(m.cfg.ResultTTL)
		close(j.done)
		j.mu.Unlock()
		m.canceled.Inc()
		m.persist(j)
		m.journal(j.ID).Record(obs.JournalEvent{Event: obs.EvCanceled, Detail: "while queued"})
		m.log(j, slog.LevelInfo, "job_canceled", slog.String("while", "queued"))
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		m.journal(j.ID).Record(obs.JournalEvent{Event: obs.EvCancelRequested})
		m.log(j, slog.LevelInfo, "job_cancel_requested", slog.String("while", "running"))
	default:
		j.mu.Unlock()
	}
	return j, true
}

// worker claims queued jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.workerWG.Done()
	for job := range m.queue {
		m.qDepth.Add(-1)
		m.runJob(job)
	}
}

// runJob executes one job end to end: state transition, context with
// deadline, the anonymization itself, and terminal bookkeeping.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // cancelled while waiting
		job.mu.Unlock()
		return
	}
	timeout := m.cfg.JobTimeout
	if job.Req.Timeout > 0 && job.Req.Timeout < timeout {
		timeout = job.Req.Timeout
	}
	ctx, cancel := context.WithTimeout(m.baseCtx, timeout)
	defer cancel()
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	wait := job.started.Sub(job.submitted)
	job.mu.Unlock()

	m.running.Add(1)
	m.queueWait.ObserveDuration(wait)
	m.persist(job)
	m.log(job, slog.LevelInfo, "job_started", slog.Duration("queue_wait", wait))
	o := m.startJobObs(job)
	o.journal.Record(obs.JournalEvent{Event: obs.EvClaimed,
		Detail: fmt.Sprintf("algo=%s k=%d", job.Req.Algorithm, job.Req.K)})
	o.journal.Record(obs.JournalEvent{Event: obs.EvPhaseStart, Phase: "anonymize"})

	res, resumed, err := m.execute(ctx, job, o)

	o.journal.Record(obs.JournalEvent{Event: obs.EvPhaseDone, Phase: "anonymize"})
	finalTrace := m.finishJobObs(job, o, true)
	if err == nil && job.Req.Trace && finalTrace != nil {
		res.Stats = finalTrace
	}

	job.mu.Lock()
	job.finished = time.Now()
	job.expires = job.finished.Add(m.cfg.ResultTTL)
	dur := job.finished.Sub(job.started)
	switch {
	case err == nil:
		job.state = StateSucceeded
		job.result = res
	case errors.Is(err, context.Canceled):
		job.state = StateCanceled
		job.err = err
	default:
		// Deadline exhaustion and instance errors both land here; the
		// error text tells them apart.
		job.state = StateFailed
		job.err = err
	}
	state := job.state
	job.mu.Unlock()
	// job.done stays open until the terminal bookkeeping below lands:
	// waiters see a fully committed job — counters bumped, journal
	// terminal event appended, result spooled, manifest flipped.
	defer close(job.done)

	m.running.Add(-1)
	m.jobDur.ObserveDuration(dur)
	switch state {
	case StateSucceeded:
		o.journal.Record(obs.JournalEvent{Event: obs.EvSucceeded,
			Detail: fmt.Sprintf("cost=%d", res.Cost)})
		m.succeeded.Inc()
		m.jobCost.Observe(int64(res.Cost))
		if resumed > 0 {
			m.blocksResumed.Add(int64(resumed))
			m.log(job, slog.LevelInfo, "job_blocks_resumed", slog.Int("blocks_resumed", resumed))
		}
		// Spool the release before flipping the manifest to succeeded,
		// so a succeeded manifest always has a readable result. If the
		// spool fails, the manifest stays "running" and the next
		// recovery re-runs the (deterministic) job.
		if m.cfg.Store != nil {
			if werr := m.cfg.Store.WriteResult(job.ID, res.Header, res.Rows); werr != nil {
				m.log(job, slog.LevelWarn, "job_persist_failed", slog.String("error", werr.Error()))
			} else {
				m.persist(job)
			}
		}
		m.log(job, slog.LevelInfo, "job_done", slog.Int("cost", res.Cost), slog.Duration("wall", dur),
			slog.Int("blocks_resumed", resumed))
	case StateCanceled:
		o.journal.Record(obs.JournalEvent{Event: obs.EvCanceled})
		m.canceled.Inc()
		m.persist(job)
		m.log(job, slog.LevelInfo, "job_canceled", slog.String("while", "running"), slog.Duration("wall", dur))
	default:
		o.journal.Record(obs.JournalEvent{Event: obs.EvFailed, Detail: err.Error()})
		m.failed.Inc()
		m.persist(job)
		m.log(job, slog.LevelWarn, "job_failed", slog.String("error", err.Error()), slog.Duration("wall", dur))
	}
}

// execute runs the job's anonymization under ctx: the facade for
// whole-table jobs, the bounded-memory stream pipeline for block jobs.
// The second return is how many stream blocks were replayed from the
// job's checkpoints instead of recomputed. o carries the run's
// observability: with a root span (store-backed runs) the compute
// attaches its phase tree there and checkpoints journal their commits
// and resumes; the release is byte-identical either way.
func (m *Manager) execute(ctx context.Context, job *Job, o jobObs) (*kanon.Result, int, error) {
	req := job.Req
	if req.BlockRows > 0 {
		var ckpt stream.Checkpoint
		if m.cfg.Store != nil {
			c, err := m.cfg.Store.Checkpoint(job.ID, job.header)
			if err != nil {
				return nil, 0, err
			}
			ckpt = &journalCheckpoint{inner: c, m: m, job: job, jr: o.journal}
		}
		return kanon.AnonymizeBlocks(ctx, job.header, job.rows, req.K, req.BlockRows, &kanon.Options{
			Kernel: req.Kernel, Refine: req.Refine, Workers: req.Workers, Span: o.root,
		}, ckpt)
	}
	opts := &kanon.Options{
		Algorithm:   req.Algorithm,
		Kernel:      req.Kernel,
		Seed:        req.Seed,
		Refine:      req.Refine,
		Workers:     req.Workers,
		Hierarchy:   req.HierarchySpec,
		MaxSuppress: req.MaxSuppress,
		Log:         m.cfg.Log,
	}
	if o.root != nil {
		opts.Span = o.root // per-job tracer; Stats come from its snapshot
	} else {
		opts.Trace = req.Trace
	}
	res, err := kanon.AnonymizeContext(ctx, job.header, job.rows, req.K, opts)
	return res, 0, err
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

// evictExpired removes terminal jobs past their expiry. The disk side
// goes through ReapTerminal, which re-checks the manifest under the
// per-job mutation lock before deleting: reaping and claiming (or a
// recovery read) serialize on the same lock, so a janitor whose view
// of a job races a concurrent claim — the manifest-mtime race — can no
// longer delete live work, it simply finds the job non-terminal and
// leaves it alone.
func (m *Manager) evictExpired(now time.Time) {
	m.mu.Lock()
	var evicted []*Job
	for id, j := range m.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && !j.expires.IsZero() && now.After(j.expires)
		j.mu.Unlock()
		if gone {
			delete(m.jobs, id)
			if key := j.Req.IdempotencyKey; key != "" && m.idem[key] == id {
				delete(m.idem, key)
			}
			evicted = append(evicted, j)
		}
	}
	m.mu.Unlock()
	for _, j := range evicted {
		m.expired.Inc()
		if m.cfg.Store != nil {
			if _, err := m.cfg.Store.ReapTerminal(j.ID, now); err != nil {
				m.log(j, slog.LevelWarn, "job_reap_failed", slog.String("error", err.Error()))
			}
		}
		m.log(j, slog.LevelDebug, "job_expired")
	}
	if m.cfg.cluster() {
		// Cluster sweep: reap expired terminal jobs this node never held
		// in memory (finished by peers, possibly dead ones).
		m.reapClusterTerminal(now)
	}
}

// Shutdown stops admission, drains queued and running jobs until ctx
// expires, then cancels whatever is left and waits for the workers to
// exit. It returns ctx.Err() if the deadline forced cancellation, nil
// on a clean drain. Safe to call more than once.
//
// In cluster mode the drain covers only locally claimed jobs: the
// claim loop stops (no new claims), running jobs get the drain budget
// to finish, and any still running at the deadline are cancelled and
// released back to the shared queue — fenced, so the release cannot
// clobber a peer that already stole the lease. Locally submitted jobs
// still queued stay queued on disk for the rest of the cluster.
func (m *Manager) Shutdown(ctx context.Context) error {
	if m.cfg.cluster() {
		return m.shutdownCluster(ctx)
	}
	m.mu.Lock()
	first := !m.draining
	if first {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()

	workersDone := make(chan struct{})
	go func() {
		m.workerWG.Wait()
		close(workersDone)
	}()
	var err error
	select {
	case <-workersDone:
	case <-ctx.Done():
		// Deadline: cancel the base context — running jobs abort at
		// their next context poll, and still-queued jobs are claimed
		// and immediately fail their (already cancelled) context.
		m.baseCancel()
		<-workersDone
		err = ctx.Err()
	}
	m.finalizeQueued()
	if first {
		close(m.janitorStop)
	}
	<-m.janitorDone
	m.baseCancel()
	return err
}

// shutdownCluster is Shutdown's cluster-mode body: stop claiming,
// drain locally running jobs, cancel-and-release the stragglers.
func (m *Manager) shutdownCluster(ctx context.Context) error {
	m.mu.Lock()
	first := !m.draining
	if first {
		m.draining = true
		close(m.claimStop)
	}
	m.mu.Unlock()
	<-m.claimDone

	runsDone := make(chan struct{})
	go func() {
		m.runWG.Wait()
		close(runsDone)
	}()
	var err error
	select {
	case <-runsDone:
	case <-ctx.Done():
		// Deadline: cancel the base context. Each running job unwinds at
		// its next context poll and, not being user-cancelled, is
		// released back to the shared queue for a peer to finish.
		m.baseCancel()
		<-runsDone
		err = ctx.Err()
	}
	if first {
		close(m.janitorStop)
	}
	<-m.janitorDone
	m.baseCancel()
	return err
}

// finalizeQueued marks any job still queued after the workers exited
// (possible when shutdown cancels the base context) as canceled, so no
// job is left in a non-terminal state.
func (m *Manager) finalizeQueued() {
	m.mu.Lock()
	var finalized []*Job
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCanceled
			j.err = context.Canceled
			j.finished = time.Now()
			j.expires = j.finished.Add(m.cfg.ResultTTL)
			close(j.done)
			m.canceled.Inc()
			finalized = append(finalized, j)
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	for _, j := range finalized {
		m.persist(j)
	}
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// JobCounts returns the number of stored jobs and how many of them are
// queued or running — the /healthz payload.
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
// front-end router balances on. Jobs/Active count this node's in-memory
// jobs (the legacy payload); Capacity/Free/Running describe this node's
// worker pool; Queued/Claimed are the cluster-wide backlog read from
// the shared store (zero outside cluster mode, where Queued falls back
// to the local queue depth).
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
	h := Health{Status: "ok", Version: buildVersion, Jobs: total, Active: active, Capacity: m.cfg.Workers}
	if m.Draining() {
		h.Status = "draining"
	}
	if m.cfg.cluster() {
		h.Node = m.cfg.NodeID
		h.Free = len(m.slots)
		m.mu.Lock()
		h.Running = len(m.runningLocal)
		m.mu.Unlock()
		h.Queued, h.Claimed = m.ClusterDepths()
		return h
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case StateRunning:
			h.Running++
		case StateQueued:
			h.Queued++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	h.Free = max(0, h.Capacity-h.Running)
	return h
}

// log emits one job lifecycle event with the job ID as run_id.
func (m *Manager) log(j *Job, level slog.Level, msg string, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	attrs = append([]slog.Attr{slog.String("run_id", j.ID)}, attrs...)
	m.cfg.Log.LogAttrs(context.Background(), level, msg, attrs...)
}
