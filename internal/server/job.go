package server

import (
	"fmt"
	"net/url"
	"strconv"
	"sync"
	"time"

	"kanon"
	"kanon/internal/exact"
	"kanon/internal/obs"
	"kanon/internal/store"
)

// State is a job's position in its lifecycle. Transitions are strictly
// forward: queued → running → one of the three terminal states, or
// queued → canceled directly when a job is cancelled before a worker
// claims it. DESIGN.md's lifecycle table maps each edge to its journal
// event, slog line and counter.
type State string

const (
	// StateQueued means the job is admitted and waiting for a worker.
	StateQueued State = "queued"
	// StateRunning means a worker is executing the job.
	StateRunning State = "running"
	// StateSucceeded means the job finished and its result is
	// retrievable until the result TTL expires.
	StateSucceeded State = "succeeded"
	// StateFailed means the job returned an error (bad instance,
	// deadline exceeded); the error text is in the status.
	StateFailed State = "failed"
	// StateCanceled means the job was cancelled by DELETE or by server
	// shutdown before it could finish.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final (the job holds a result
// or error and its TTL clock is running).
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// JobRequest is the validated parameter set of one submission — the
// query-string knobs of POST /v1/jobs, mirroring cmd/kanon's flags.
type JobRequest struct {
	// K is the anonymity parameter (required, ≥ 1).
	K int
	// Algorithm is the strategy to run (default AlgoGreedyBall).
	Algorithm kanon.Algorithm
	// Workers bounds the per-job parallel hot paths (0 = all CPUs).
	Workers int
	// BlockRows > 0 streams the table in blocks of this many rows.
	BlockRows int
	// Refine post-optimizes with cost-direct local search.
	Refine bool
	// Seed feeds AlgoRandom's shuffle.
	Seed int64
	// Timeout bounds the job's run time; 0 means the server default,
	// and requests are clamped to the server default as a ceiling.
	Timeout time.Duration
	// Trace collects the phase-span tree into the job's status.
	Trace bool
	// Kernel selects the distance-kernel backend; output is identical
	// for every choice. Meaningful only when KernelSet is true —
	// otherwise Submit fills in the server's configured default.
	Kernel kanon.Kernel
	// KernelSet records whether the submission named a kernel
	// explicitly (the zero kanon.Kernel is the valid "auto", so
	// presence cannot be read off the value alone).
	KernelSet bool
	// HierarchySpec is AlgoHierarchy's generalization sidecar, parsed
	// and validated at admission; nil derives one from the data.
	HierarchySpec *kanon.HierarchySpec
	// MaxSuppress is AlgoHierarchy's row-suppression budget.
	MaxSuppress int
	// IdempotencyKey, when non-empty, makes the submission exactly-once:
	// at most one admitted job carries a given key, and a resubmission
	// with the same key replays the original acceptance. Carried from
	// the Idempotency-Key request header, never from the query string.
	IdempotencyKey string
}

// ParseJobRequest validates the query parameters of a submission:
// k (required), algo, workers, block, refine, seed, timeout, trace,
// kernel, hierarchy, suppress. Unknown parameters are rejected so
// typos fail loudly instead of silently running with defaults.
func ParseJobRequest(q url.Values) (JobRequest, error) {
	req := JobRequest{Algorithm: kanon.AlgoGreedyBall}
	for key := range q {
		switch key {
		case "k", "algo", "workers", "block", "refine", "seed", "timeout", "trace", "kernel",
			"hierarchy", "suppress":
		default:
			return req, fmt.Errorf("unknown parameter %q", key)
		}
	}
	if !q.Has("k") {
		return req, fmt.Errorf("missing required parameter k")
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		return req, fmt.Errorf("k must be a positive integer, got %q", q.Get("k"))
	}
	req.K = k
	if v := q.Get("algo"); v != "" {
		a, err := kanon.ParseAlgorithm(v)
		if err != nil {
			return req, err
		}
		req.Algorithm = a
	}
	if v := q.Get("workers"); v != "" {
		w, err := strconv.Atoi(v)
		if err != nil || w < 0 {
			return req, fmt.Errorf("workers must be a nonnegative integer, got %q", v)
		}
		req.Workers = w
	}
	if v := q.Get("block"); v != "" {
		b, err := strconv.Atoi(v)
		if err != nil || b < 0 {
			return req, fmt.Errorf("block must be a nonnegative integer, got %q", v)
		}
		req.BlockRows = b
	}
	if v := q.Get("refine"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("refine must be a boolean, got %q", v)
		}
		req.Refine = b
	}
	if v := q.Get("seed"); v != "" {
		s, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("seed must be an integer, got %q", v)
		}
		req.Seed = s
	}
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return req, fmt.Errorf("timeout must be a positive duration, got %q", v)
		}
		req.Timeout = d
	}
	if v := q.Get("trace"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return req, fmt.Errorf("trace must be a boolean, got %q", v)
		}
		req.Trace = b
	}
	if v := q.Get("kernel"); v != "" {
		kern, err := kanon.ParseKernel(v)
		if err != nil {
			return req, err
		}
		req.Kernel, req.KernelSet = kern, true
	}
	if v := q.Get("hierarchy"); v != "" {
		// The spec document travels in the parameter itself, validated at
		// admission so a malformed sidecar is a 400, not a failed job.
		s, err := kanon.ParseHierarchySpec([]byte(v))
		if err != nil {
			return req, err
		}
		req.HierarchySpec = s
	}
	if v := q.Get("suppress"); v != "" {
		s, err := strconv.Atoi(v)
		if err != nil || s < 0 {
			return req, fmt.Errorf("suppress must be a nonnegative integer, got %q", v)
		}
		req.MaxSuppress = s
	}
	return req, nil
}

// validateInstance rejects work the compute layer is guaranteed to
// refuse, so infeasible jobs never occupy a queue slot.
func validateInstance(req JobRequest, rows int) error {
	if rows < req.K {
		return fmt.Errorf("table has %d rows, fewer than k = %d", rows, req.K)
	}
	if req.BlockRows > 0 && req.Algorithm != kanon.AlgoGreedyBall {
		return fmt.Errorf("block streaming supports only algo=ball, got %s", req.Algorithm)
	}
	if req.Algorithm != kanon.AlgoHierarchy && (req.HierarchySpec != nil || req.MaxSuppress != 0) {
		return fmt.Errorf("hierarchy and suppress parameters require algo=hierarchy, got %s", req.Algorithm)
	}
	if req.Algorithm == kanon.AlgoHierarchy && req.Refine {
		return fmt.Errorf("refine needs a partition, and algo=hierarchy releases a generalization")
	}
	if req.Algorithm == kanon.AlgoExact && rows > exact.MaxDPRows {
		return fmt.Errorf("exact solver is limited to %d rows (got %d); use a greedy algorithm",
			exact.MaxDPRows, rows)
	}
	return nil
}

// Job is one admitted anonymization request moving through the queue.
// The input table and request are immutable after Submit; the lifecycle
// fields are guarded by mu.
type Job struct {
	// ID is the job's run identifier — the handle of the HTTP API and
	// the run_id label on every log event the job emits.
	ID string
	// Req is the validated request.
	Req JobRequest

	header []string
	rows   [][]string

	mu        sync.Mutex
	state     State
	err       error
	result    *kanon.Result
	submitted time.Time
	started   time.Time
	finished  time.Time
	expires   time.Time
	cancel    func() // non-nil once running; cancels the job's context
	done      chan struct{}

	// Lease bookkeeping: the node whose claim covers this run, and
	// whether cancellation was requested by a user (as opposed to a drain
	// deadline, which on a configured store releases the job back to the
	// queue instead of cancelling it terminally).
	claimNode    string
	userCanceled bool
	// admitted marks a job submitted through this manager, as opposed to
	// one adopted from the store; a draining node runs only these.
	admitted bool
	// commit is held while a run settles its outcome (manifest, journal,
	// worker slot, local state), so StatusOf waits out that step instead
	// of answering from its middle.
	commit sync.Mutex

	// Observability: the per-run tracer, live while this node runs the
	// job, and the trace segments persisted by earlier runs — captured
	// once at run start so re-flushes never merge this run's own output
	// back into itself.
	tracer     *obs.Tracer
	priorTrace *obs.Snapshot
}

// manifest is the job's admission record: the queued manifest Submit
// writes to the store. Every later transition is a fenced store
// mutation made by the lease holder, never a rewrite of this record.
func (j *Job) manifest() *store.Manifest {
	m := &store.Manifest{
		Version:        store.ManifestVersion,
		ID:             j.ID,
		State:          store.StateQueued,
		K:              j.Req.K,
		Algo:           j.Req.Algorithm.String(),
		Kernel:         j.Req.Kernel.String(),
		Workers:        j.Req.Workers,
		BlockRows:      j.Req.BlockRows,
		Refine:         j.Req.Refine,
		Seed:           j.Req.Seed,
		TimeoutMS:      j.Req.Timeout.Milliseconds(),
		MaxSuppress:    j.Req.MaxSuppress,
		Rows:           len(j.rows),
		Cols:           len(j.header),
		SubmittedAt:    j.submitted,
		IdempotencyKey: j.Req.IdempotencyKey,
	}
	if j.Req.HierarchySpec != nil {
		// The spec was validated at admission, so encoding cannot fail;
		// persisting the canonical JSON keeps recovery format-independent
		// of how the submission spelled it (JSON or CSV).
		if b, err := j.Req.HierarchySpec.Encode(); err == nil {
			m.HierarchySpec = string(b)
		}
	}
	return m
}

// requestFromManifest rebuilds the request a manifest records — the
// recovery path's inverse of manifest(). The manifest was validated on
// decode; only the algorithm and kernel names still need parsing. A
// manifest written before the kernel field existed has an empty name,
// which parses to the auto kernel.
func requestFromManifest(m *store.Manifest) (JobRequest, error) {
	algo, err := kanon.ParseAlgorithm(m.Algo)
	if err != nil {
		return JobRequest{}, err
	}
	kern, err := kanon.ParseKernel(m.Kernel)
	if err != nil {
		return JobRequest{}, err
	}
	req := JobRequest{
		K:              m.K,
		Algorithm:      algo,
		Workers:        m.Workers,
		BlockRows:      m.BlockRows,
		Refine:         m.Refine,
		Seed:           m.Seed,
		Timeout:        time.Duration(m.TimeoutMS) * time.Millisecond,
		Kernel:         kern,
		KernelSet:      true,
		MaxSuppress:    m.MaxSuppress,
		IdempotencyKey: m.IdempotencyKey,
	}
	if m.HierarchySpec != "" {
		s, err := kanon.ParseHierarchySpec([]byte(m.HierarchySpec))
		if err != nil {
			return JobRequest{}, err
		}
		req.HierarchySpec = s
	}
	return req, nil
}

// Status is the JSON view of a job served by GET /v1/jobs/{id} and
// returned by POST and DELETE.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	K     int    `json:"k"`
	Algo  string `json:"algo"`
	// Kernel is the resolved distance-kernel backend the job runs
	// under (the submission's choice, or the server default).
	Kernel string `json:"kernel"`
	Rows   int    `json:"rows"`
	Cols   int    `json:"cols"`
	// Cost is the suppression objective; present once succeeded.
	Cost *int `json:"cost,omitempty"`
	// Node is the node whose lease covers (or covered) the job's run —
	// "local" on a node without a NodeID; empty before the first claim.
	Node string `json:"node,omitempty"`
	// Error is the failure or cancellation reason, if terminal and not
	// succeeded.
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   *time.Time   `json:"started_at,omitempty"`
	FinishedAt  *time.Time   `json:"finished_at,omitempty"`
	QueueWaitMS int64        `json:"queue_wait_ms"`
	DurationMS  int64        `json:"duration_ms,omitempty"`
	Stats       *kanon.Stats `json:"stats,omitempty"`
}

// Status snapshots the job's lifecycle under its lock.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.ID,
		State:       j.state,
		K:           j.Req.K,
		Algo:        j.Req.Algorithm.String(),
		Kernel:      j.Req.Kernel.String(),
		Rows:        len(j.rows),
		Cols:        len(j.header),
		Node:        j.claimNode,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		st.QueueWaitMS = j.started.Sub(j.submitted).Milliseconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
		if !j.started.IsZero() {
			st.DurationMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.result != nil {
		c := j.result.Cost
		st.Cost = &c
		st.Stats = j.result.Stats
	}
	return st
}

// Result returns the completed result, or false if the job is not in
// StateSucceeded.
func (j *Job) Result() (*kanon.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateSucceeded {
		return nil, false
	}
	return j.result, true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
