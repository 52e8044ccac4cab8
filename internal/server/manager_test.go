package server

import (
	"context"
	"errors"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kanon"
	"kanon/internal/relation"
	"kanon/internal/store"
)

func mustParse(t *testing.T, csv string) ([]string, [][]string) {
	t.Helper()
	header, rows, err := relation.ReadCSVRows(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	return header, rows
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = time.Minute
	}
	if cfg.ResultTTL == 0 {
		cfg.ResultTTL = time.Minute
	}
	m := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return m
}

func TestParseJobRequest(t *testing.T) {
	cases := []struct {
		name  string
		query string
		ok    bool
		check func(JobRequest) bool
	}{
		{"minimal", "k=3", true, func(r JobRequest) bool {
			return r.K == 3 && r.Algorithm == kanon.AlgoGreedyBall
		}},
		{"full", "k=2&algo=exact&workers=4&refine=1&seed=-9&timeout=30s&trace=true", true, func(r JobRequest) bool {
			return r.K == 2 && r.Algorithm == kanon.AlgoExact && r.Workers == 4 &&
				r.Refine && r.Seed == -9 && r.Timeout == 30*time.Second && r.Trace
		}},
		{"block", "k=2&block=128", true, func(r JobRequest) bool { return r.BlockRows == 128 }},
		{"missing k", "algo=ball", false, nil},
		{"zero k", "k=0", false, nil},
		{"negative k", "k=-2", false, nil},
		{"non-numeric k", "k=three", false, nil},
		{"unknown algo", "k=2&algo=quantum", false, nil},
		{"negative workers", "k=2&workers=-1", false, nil},
		{"negative block", "k=2&block=-5", false, nil},
		{"bad refine", "k=2&refine=maybe", false, nil},
		{"bad seed", "k=2&seed=pi", false, nil},
		{"zero timeout", "k=2&timeout=0s", false, nil},
		{"bad timeout", "k=2&timeout=soon", false, nil},
		{"bad trace", "k=2&trace=7up", false, nil},
		{"unknown param", "k=2&turbo=1", false, nil},
	}
	for _, tc := range cases {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		req, err := ParseJobRequest(q)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && tc.check != nil && !tc.check(req) {
			t.Errorf("%s: parsed %+v", tc.name, req)
		}
	}
}

func TestValidateInstance(t *testing.T) {
	if err := validateInstance(JobRequest{K: 5, Algorithm: kanon.AlgoGreedyBall}, 4); err == nil {
		t.Error("accepted k > rows")
	}
	if err := validateInstance(JobRequest{K: 2, Algorithm: kanon.AlgoExact}, 25); err == nil {
		t.Error("accepted exact beyond MaxDPRows")
	}
	if err := validateInstance(JobRequest{K: 2, Algorithm: kanon.AlgoExact, BlockRows: 8}, 16); err == nil {
		t.Error("accepted block streaming with a non-ball algorithm")
	}
	if err := validateInstance(JobRequest{K: 2, Algorithm: kanon.AlgoHierarchy, Refine: true}, 16); err == nil {
		t.Error("accepted refine with algo=hierarchy")
	}
	if err := validateInstance(JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall, BlockRows: 8}, 16); err != nil {
		t.Errorf("rejected valid block request: %v", err)
	}
}

// TestCancelQueuedJob pins the queued → canceled shortcut: a job
// cancelled before any worker claims it terminates immediately and is
// never claimed.
func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCapacity: 4})
	header, rows := mustParse(t, slowCSV())

	blocker, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}

	if _, ok := m.CancelByID(queued.ID); !ok {
		t.Fatal("Cancel lost the queued job")
	}
	select {
	case <-queued.Done():
	case <-time.After(time.Second):
		t.Fatal("queued job not terminal after Cancel")
	}
	if st := queued.Status(); st.State != StateCanceled || !strings.Contains(st.Error, "context canceled") {
		t.Errorf("queued cancel status = %+v", st)
	}
	if _, ok := queued.Result(); ok {
		t.Error("canceled job has a result")
	}

	if _, ok := m.CancelByID(blocker.ID); !ok {
		t.Fatal("Cancel lost the running job")
	}
	select {
	case <-blocker.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("running job not canceled within 2s")
	}
}

// TestCancelUnknownAndTerminal pins CancelByID's edges: unknown IDs report
// !ok, and cancelling a finished job leaves it untouched.
func TestCancelUnknownAndTerminal(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1})
	if _, ok := m.CancelByID("nonesuch"); ok {
		t.Error("Cancel invented a job")
	}
	header, rows := mustParse(t, sampleCSV)
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.Status().State; st != StateSucceeded {
		t.Fatalf("job state %s", st)
	}
	m.CancelByID(job.ID)
	if st := job.Status().State; st != StateSucceeded {
		t.Errorf("Cancel rewrote a terminal state to %s", st)
	}
	if res, ok := job.Result(); !ok || res.Cost <= 0 {
		t.Errorf("result after no-op cancel: %v %v", res, ok)
	}
}

// TestSubmitQueueFull pins admission control at the Manager layer.
func TestSubmitQueueFull(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, QueueCapacity: 1})
	header, rows := mustParse(t, slowCSV())
	running, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker claims it so the queue slot is free.
	deadline := time.Now().Add(5 * time.Second)
	for running.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact}); err != nil {
		t.Fatalf("queue-slot submit failed: %v", err)
	}
	if _, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
}

// TestConcurrentSubmitsRespectQueueCapacity: admission is one step per
// node, so a burst of concurrent submissions cannot overshoot the
// queue capacity while the only worker is busy — on the in-memory
// store and on disk, where each admission's writes take longest.
func TestConcurrentSubmitsRespectQueueCapacity(t *testing.T) {
	for name, st := range map[string]*store.Store{"memory": nil, "local": openTestStore(t)} {
		m := newTestManager(t, Config{Workers: 1, QueueCapacity: 2, Store: st})
		slowHeader, slowRows := mustParse(t, slowCSV())
		blocker, err := m.Submit(slowHeader, slowRows, JobRequest{K: 2, Algorithm: kanon.AlgoExact})
		if err != nil {
			t.Fatal(err)
		}
		waitRunning(t, m, blocker.ID)

		header, rows := mustParse(t, sampleCSV)
		var admitted atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
				switch {
				case err == nil:
					admitted.Add(1)
				case !errors.Is(err, ErrQueueFull):
					t.Errorf("%s: submit: %v, want nil or ErrQueueFull", name, err)
				}
			}()
		}
		wg.Wait()
		if n := admitted.Load(); n > 2 {
			t.Fatalf("%s: %d of 16 concurrent submissions admitted past a queue capacity of 2", name, n)
		}
		m.CancelByID(blocker.ID)
	}
}

// TestTTLEviction pins the janitor: terminal jobs disappear once their
// result TTL passes.
func TestTTLEviction(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, ResultTTL: 30 * time.Millisecond})
	header, rows := mustParse(t, sampleCSV)
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if _, ok := m.Get(job.ID); !ok {
		t.Fatal("job gone before TTL")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := m.Get(job.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job not evicted 2s past a 30ms TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobTimeoutCeiling pins the deadline policy: a client-requested
// timeout caps the job, and exceeding it fails (not cancels) the job
// with a deadline error.
func TestJobTimeoutCeiling(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, JobTimeout: time.Minute})
	header, rows := mustParse(t, slowCSV())
	job, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoExact, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("timed-out job not terminal within 5s")
	}
	st := job.Status()
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline exceeded") {
		t.Errorf("error = %q, want a deadline error", st.Error)
	}
}

// TestShutdownIdempotent pins that a second Shutdown is safe and also
// drains.
func TestShutdownIdempotent(t *testing.T) {
	m := NewManager(Config{Workers: 1, JobTimeout: time.Minute, ResultTTL: time.Minute})
	ctx := context.Background()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	header, rows := mustParse(t, sampleCSV)
	if _, err := m.Submit(header, rows, JobRequest{K: 2, Algorithm: kanon.AlgoGreedyBall}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown submit error = %v, want ErrDraining", err)
	}
}
