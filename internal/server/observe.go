// Per-job observability: the durable lifecycle journal and the
// persisted trace timeline.
//
// Every job carries two artifacts next to its manifest in the store.
// events.jsonl is the append-only journal: submitted, claimed, lease
// renewals/steals, checkpoint commits and resumes, phases, and the
// terminal event — each line stamped with the node that wrote it, so a
// stolen job's history names every node that touched it. Each journal
// event is also the edge's only other record: record derives the slog
// line and the /metrics counter from it through the lifecycle table.
// trace.json is the job's span timeline, flushed at checkpoint commits
// and terminal transitions; each run captures the previously persisted
// segments ONCE at start (priorTrace) and merges its own live tracer in
// front of every flush, so a job that crossed nodes stitches into one
// wall-clock-ordered timeline without ever re-merging its own output.
// EventsOf and TraceOf read through the store like StatusOf, so any
// node answers for any job.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"kanon/internal/obs"
	"kanon/internal/store"
	"kanon/internal/stream"
)

// lifecycle is the closed table of job lifecycle edges: for each journal
// event, the level of its slog line and the /metrics counter it bumps
// ("" for none). record writes an edge's journal line, slog line and
// counter bump from the one event, so the three cannot disagree.
var lifecycle = map[string]struct {
	level   slog.Level
	counter string
}{
	obs.EvSubmitted:           {slog.LevelInfo, "server.jobs_submitted"},
	obs.EvClaimed:             {slog.LevelInfo, "server.leases_claimed"},
	obs.EvLeaseRenewed:        {slog.LevelDebug, "server.leases_renewed"},
	obs.EvLeaseExpired:        {slog.LevelWarn, ""},
	obs.EvLeaseStolen:         {slog.LevelInfo, "server.leases_stolen"},
	obs.EvLeaseReleased:       {slog.LevelInfo, "server.leases_released"},
	obs.EvLeaseLost:           {slog.LevelWarn, "server.leases_lost"},
	obs.EvCheckpointCommitted: {slog.LevelDebug, ""},
	obs.EvCheckpointResumed:   {slog.LevelDebug, ""},
	obs.EvPhaseBegin:          {slog.LevelDebug, ""},
	obs.EvPhaseEnd:            {slog.LevelDebug, ""},
	obs.EvCancelRequested:     {slog.LevelInfo, ""},
	obs.EvCanceled:            {slog.LevelInfo, "server.jobs_canceled"},
	obs.EvSucceeded:           {slog.LevelInfo, "server.jobs_succeeded"},
	obs.EvFailed:              {slog.LevelWarn, "server.jobs_failed"},
}

// record is the one call per lifecycle edge. It stamps the event with
// this node (unless it names another, as lease_expired names the dead
// owner) and the time, appends it to the job's journal, logs it under
// the event's name, and bumps the edge's counter. A failed append is
// logged as journal_append_failed and never fails the job: journaling
// is observability.
func (m *Manager) record(id string, e obs.JournalEvent) {
	if e.Node == "" {
		e.Node = m.cfg.NodeID
	}
	e.TS = time.Now()
	line, err := obs.EncodeJournalEvent(e)
	if err == nil {
		err = m.st.AppendJournal(id, line)
	}
	if err != nil {
		m.log(id, slog.LevelWarn, "journal_append_failed", slog.String("error", err.Error()))
	}
	ed := lifecycle[e.Event]
	m.log(id, ed.level, e.Event, slog.String("node", e.Node), slog.Uint64("fence", e.Fence),
		slog.String("phase", e.Phase), slog.String("detail", e.Detail))
	if ed.counter != "" {
		m.tr.Counter(ed.counter).Inc()
	}
}

// startJobObs opens a run's observability: a fresh per-job tracer whose
// root span names this node ("job@node-a", or "job" without a
// NodeID), and a one-time capture of any previously persisted trace
// segments. The capture happens once, here, so later flushes merge
// prior + live and never fold an earlier flush of this same run back
// into itself. It returns the root span.
func (m *Manager) startJobObs(job *Job) *obs.Span {
	name := "job"
	if m.cfg.NodeID != "" {
		name = "job@" + m.cfg.NodeID
	}
	tr := obs.New()
	root := tr.Start(name)
	var prior *obs.Snapshot
	if b, err := m.st.ReadTrace(job.ID); err == nil && len(b) > 0 {
		var snap obs.Snapshot
		if json.Unmarshal(b, &snap) == nil {
			prior = &snap
		}
	}
	job.mu.Lock()
	job.tracer, job.priorTrace = tr, prior
	job.mu.Unlock()
	return root
}

// jobTraceSnapshot merges the job's prior persisted segments with its
// live tracer into one timeline; nil when the job has no tracer.
func (m *Manager) jobTraceSnapshot(job *Job) *obs.Snapshot {
	job.mu.Lock()
	tr, prior := job.tracer, job.priorTrace
	job.mu.Unlock()
	if tr == nil {
		return nil
	}
	snap := &obs.Snapshot{}
	snap.Merge(prior)
	snap.Merge(tr.Snapshot())
	return snap
}

// flushJobTrace persists the job's merged timeline — called at every
// checkpoint commit and at terminal transitions. Last write wins; each
// flush is a strictly fuller view of the same run. The write is fenced
// by the run's lease: once a thief holds the job, trace.json is its
// own, and this node's flushes are refused without a warning.
func (m *Manager) flushJobTrace(job *Job, fence uint64) {
	snap := m.jobTraceSnapshot(job)
	if snap == nil {
		return
	}
	b, err := json.Marshal(snap)
	if err == nil {
		err = m.st.WriteTraceFenced(job.ID, m.node, fence, b)
	}
	if err != nil && !errors.Is(err, store.ErrFenced) {
		m.log(job.ID, slog.LevelWarn, "trace_persist_failed", slog.String("error", err.Error()))
	}
}

// finishJobObs closes a run's observability: end the root span, flush
// the final timeline under the run's fence, and detach the tracer so
// TraceOf reads the persisted file from here on. Returns the final
// merged timeline.
func (m *Manager) finishJobObs(job *Job, root *obs.Span, fence uint64) *obs.Snapshot {
	root.End()
	snap := m.jobTraceSnapshot(job)
	m.flushJobTrace(job, fence)
	job.mu.Lock()
	job.tracer, job.priorTrace = nil, nil
	job.mu.Unlock()
	return snap
}

// journalCheckpoint wraps the store's stream checkpoint with the
// journal and trace hooks: every committed block flushes the trace (so
// a thief resuming from this block also inherits the timeline up to
// it) and appends a checkpoint_committed event, and every replayed
// block appends checkpoint_resumed — the durable record that a resume
// actually reused the dead node's work.
type journalCheckpoint struct {
	inner stream.Checkpoint
	m     *Manager
	job   *Job
	fence uint64 // the run's lease, which fences its trace flushes
}

// Save flushes the trace before the inner checkpoint writes the block's
// commit marker: a node killed between the two leaves a trace naming
// it and no committed block, never a committed block whose trace
// segment is lost.
func (c *journalCheckpoint) Save(stat stream.BlockStat, rows [][]string) error {
	c.m.flushJobTrace(c.job, c.fence)
	if err := c.inner.Save(stat, rows); err != nil {
		return err
	}
	c.m.record(c.job.ID, obs.JournalEvent{Event: obs.EvCheckpointCommitted,
		Detail: fmt.Sprintf("block [%d,%d) cost=%d", stat.Lo, stat.Hi, stat.Cost)})
	return nil
}

func (c *journalCheckpoint) Load(lo, hi int) ([][]string, *stream.BlockStat, bool, error) {
	rows, stat, ok, err := c.inner.Load(lo, hi)
	if ok && err == nil {
		c.m.record(c.job.ID, obs.JournalEvent{Event: obs.EvCheckpointResumed,
			Detail: fmt.Sprintf("block [%d,%d)", lo, hi)})
	}
	return rows, stat, ok, err
}

// jobKnown reports whether the ID names a job this node can answer for:
// held in memory, or present in the store.
func (m *Manager) jobKnown(id string) bool {
	if _, ok := m.Get(id); ok {
		return true
	}
	_, err := m.st.ReadManifest(id)
	return err == nil
}

// EventsOf returns the job's decoded journal, reading through the store
// like StatusOf so any node answers for any job. The second return is
// false for unknown IDs; a known job with nothing recorded yet answers
// an empty list.
func (m *Manager) EventsOf(id string) ([]obs.JournalEvent, bool) {
	if !m.jobKnown(id) {
		return nil, false
	}
	b, err := m.st.ReadJournal(id)
	if err != nil {
		m.log(id, slog.LevelWarn, "journal_read_failed", slog.String("error", err.Error()))
		return nil, true
	}
	events, err := obs.DecodeJournal(b)
	if err != nil {
		m.log(id, slog.LevelWarn, "journal_corrupt", slog.String("error", err.Error()))
		return nil, true
	}
	return events, true
}

// TraceOf returns the job's merged span timeline: the live prior+tracer
// view while this node is running the job, the persisted trace.json
// otherwise. The second return is false for unknown IDs; a known job
// with no timeline yet answers an empty snapshot.
func (m *Manager) TraceOf(id string) (*obs.Snapshot, bool) {
	if j, ok := m.Get(id); ok {
		if snap := m.jobTraceSnapshot(j); snap != nil {
			return snap, true
		}
	}
	if !m.jobKnown(id) {
		return nil, false
	}
	if b, err := m.st.ReadTrace(id); err == nil && len(b) > 0 {
		var snap obs.Snapshot
		if err := json.Unmarshal(b, &snap); err == nil {
			return &snap, true
		}
		m.log(id, slog.LevelWarn, "trace_corrupt")
	}
	return &obs.Snapshot{}, true
}
