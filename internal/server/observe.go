// Per-job observability: the durable lifecycle journal and the
// persisted trace timeline.
//
// Every job carries two artifacts next to its manifest in the store.
// events.jsonl is the append-only journal: submitted, claimed, lease
// renewals/steals, checkpoint commits and resumes, phases, and the
// terminal event — each line stamped with the node that wrote it, so a
// stolen job's history names every node that touched it.
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
	"fmt"
	"log/slog"

	"kanon/internal/obs"
	"kanon/internal/stream"
)

// journal returns the job's event sink in the store. Append failures
// degrade loudly: journaling is observability, it never fails the job.
func (m *Manager) journal(id string) *obs.Journal {
	return obs.NewJournal(m.cfg.NodeID, func(line []byte) error {
		return m.st.AppendJournal(id, line)
	}, func(err error) {
		m.logBare(slog.LevelWarn, "journal_append_failed",
			slog.String("run_id", id), slog.String("error", err.Error()))
	})
}

// jobObs bundles the observability handles of one run: the root span of
// this node's trace segment and the job's journal.
type jobObs struct {
	root    *obs.Span
	journal *obs.Journal
}

// startJobObs opens a run's observability: a fresh per-job tracer whose
// root span names this node ("job@node-a", or "job" without a
// NodeID), and a one-time capture of any previously persisted trace
// segments. The capture happens once, here, so later flushes merge
// prior + live and never fold an earlier flush of this same run back
// into itself.
func (m *Manager) startJobObs(job *Job) jobObs {
	o := jobObs{journal: m.journal(job.ID)}
	name := "job"
	if m.cfg.NodeID != "" {
		name = "job@" + m.cfg.NodeID
	}
	tr := obs.New()
	o.root = tr.Start(name)
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
	return o
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
// flush is a strictly fuller view of the same run.
func (m *Manager) flushJobTrace(job *Job) {
	snap := m.jobTraceSnapshot(job)
	if snap == nil {
		return
	}
	b, err := json.Marshal(snap)
	if err == nil {
		err = m.st.WriteTrace(job.ID, b)
	}
	if err != nil {
		m.log(job, slog.LevelWarn, "trace_persist_failed", slog.String("error", err.Error()))
	}
}

// finishJobObs closes a run's observability: end the root span, flush
// the final timeline (unless the lease was lost — the thief owns
// trace.json now and a late flush would clobber its fuller view), and
// detach the tracer so TraceOf reads the persisted file from here on.
// Returns the final merged timeline.
func (m *Manager) finishJobObs(job *Job, o jobObs, persist bool) *obs.Snapshot {
	o.root.End()
	snap := m.jobTraceSnapshot(job)
	if persist {
		m.flushJobTrace(job)
	}
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
	jr    *obs.Journal
}

// Save flushes the trace before the inner checkpoint writes the block's
// commit marker: a node killed between the two leaves a trace naming
// it and no committed block, never a committed block whose trace
// segment is lost.
func (c *journalCheckpoint) Save(stat stream.BlockStat, rows [][]string) error {
	c.m.flushJobTrace(c.job)
	if err := c.inner.Save(stat, rows); err != nil {
		return err
	}
	c.jr.Record(obs.JournalEvent{
		Event:  obs.EvCheckpointCommitted,
		Detail: fmt.Sprintf("block [%d,%d) cost=%d", stat.Lo, stat.Hi, stat.Cost),
	})
	return nil
}

func (c *journalCheckpoint) Load(lo, hi int) ([][]string, *stream.BlockStat, bool, error) {
	rows, stat, ok, err := c.inner.Load(lo, hi)
	if ok && err == nil {
		c.jr.Record(obs.JournalEvent{
			Event:  obs.EvCheckpointResumed,
			Detail: fmt.Sprintf("block [%d,%d)", lo, hi),
		})
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
		m.logBare(slog.LevelWarn, "journal_read_failed",
			slog.String("run_id", id), slog.String("error", err.Error()))
		return nil, true
	}
	events, err := obs.DecodeJournal(b)
	if err != nil {
		m.logBare(slog.LevelWarn, "journal_corrupt",
			slog.String("run_id", id), slog.String("error", err.Error()))
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
		m.logBare(slog.LevelWarn, "trace_corrupt", slog.String("run_id", id))
	}
	return &obs.Snapshot{}, true
}
