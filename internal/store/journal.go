package store

import (
	"bytes"
	"fmt"
	"path"
	"time"
)

// Per-job observability artifacts: events.jsonl (the append-only
// lifecycle journal) and trace.json (the job's latest merged span
// snapshot). The store keeps both at the bytes level — obs owns the
// formats — and applies the same disk discipline as every other spool:
// writes go through writeFileAtomic (temp + fsync + rename), and
// journal appends serialize under the per-job mutation lock so a fenced
// old owner and the thief that replaced it cannot interleave a
// read-modify-write.

// AppendJournal appends one pre-encoded, newline-terminated journal
// line to the job's events.jsonl. The append is a locked
// read-modify-write of the whole spool: anything after the final
// newline (a torn tail from a crashed writer) is dropped before the new
// line lands, so the spool only ever grows by complete lines.
func (s *Store) AppendJournal(id string, line []byte) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	if len(line) == 0 || line[len(line)-1] != '\n' {
		return fmt.Errorf("store: journal line for job %s not newline-terminated", id)
	}
	unlock, _, err := s.lockJob(id)
	if err != nil {
		return err
	}
	defer unlock()
	rel := path.Join(jobRel(id), "events.jsonl")
	prev, err := s.be.ReadFile(rel)
	if err != nil && !notExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	if i := bytes.LastIndexByte(prev, '\n'); i != len(prev)-1 {
		prev = prev[:i+1] // drop the torn tail (i == -1 drops everything)
	}
	return s.be.WriteAtomic(rel, append(prev, line...))
}

// ReadJournal returns the job's raw events.jsonl bytes. A job with no
// journal yet reads as empty, not as an error — journaling is optional
// and older jobs have no spool.
func (s *Store) ReadJournal(id string) ([]byte, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	b, err := s.be.ReadFile(path.Join(jobRel(id), "events.jsonl"))
	if notExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// WriteTrace atomically replaces the job's persisted trace snapshot
// (trace.json). The server flushes at checkpoint commits and terminal
// transitions, through WriteTraceFenced; last write wins, which is
// correct because each flush is a fuller view of the same timeline.
func (s *Store) WriteTrace(id string, data []byte) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	return s.be.WriteAtomic(path.Join(jobRel(id), "trace.json"), data)
}

// WriteTraceFenced is WriteTrace for the holder of the job's lease.
// Last write wins only among flushes of the lease holder, so the write
// checks (node, fence) under the job's mutation lock, as RenewLease
// does: an owner whose lease was stolen gets ErrFenced instead of
// overwriting its thief's view, even after the thief has finished.
func (s *Store) WriteTraceFenced(id, node string, fence uint64, data []byte) error {
	_, err := s.mutate(id, func(m *Manifest, _ time.Duration) error {
		if err := checkOwner(m, node, fence); err != nil {
			return err
		}
		if err := s.WriteTrace(id, data); err != nil {
			return err
		}
		return errUnchanged
	})
	return err
}

// ReadTrace returns the job's persisted trace snapshot, nil if none has
// been flushed yet.
func (s *Store) ReadTrace(id string) ([]byte, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	b, err := s.be.ReadFile(path.Join(jobRel(id), "trace.json"))
	if notExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}
