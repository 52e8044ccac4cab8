// Package store persists kanond jobs so a crash or restart loses no
// admitted work. The layout is one directory per job:
//
//	<data-dir>/jobs/<job-id>/
//	    manifest.json     versioned (kanon-job/2) lifecycle record
//	    request.csv       the submitted table, via the shared CSV codec
//	    result.csv        the release, written before the manifest says
//	                      succeeded
//	    checkpoints/      per-block spools for resumable stream jobs:
//	        block-<lo>-<hi>.csv        anonymized rows (header + rows)
//	        block-<lo>-<hi>.stat.json  the block's BlockStat (commit marker)
//
// Every write lands through a Backend (backend.go) whose atomic-write
// primitive guarantees a reader (including the post-crash recovery
// scan) sees either the previous complete file or the new complete
// file, never a torn one. The manifest is the commit record: result
// and checkpoint spools are written before the state that makes them
// authoritative, so a crash between the two at worst re-runs
// deterministic work, never serves a phantom result.
//
// The store is mechanism, not policy: it validates what it reads and
// keeps writes atomic, while the server decides what to recover, when
// to reap, and what the states mean.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path"
	"sort"
	"time"

	"kanon/internal/relation"
	"kanon/internal/stream"
)

// Store is a backend-backed job store. All methods are safe for
// concurrent use — including use by other processes sharing the
// backend's substrate: distinct jobs touch distinct directories,
// same-job writes are atomic replacements, and the claim operations
// (claim.go) serialize read-modify-write manifest transitions through
// a per-job lock file.
type Store struct {
	be Backend
	// lockStale is how old a per-job mutation lock may grow before it is
	// presumed abandoned by a crashed process and broken. Mutations hold
	// the lock for microseconds, so the default (30s) is generous; tests
	// shrink it via SetLockStale.
	lockStale time.Duration
}

// Open ensures the data directory (and its jobs/ subdirectory) exists
// and returns a store over the local-disk backend rooted there.
func Open(dir string) (*Store, error) {
	be, err := NewLocal(dir)
	if err != nil {
		return nil, err
	}
	return OpenBackend(be)
}

// OpenBackend returns a store over an explicit Backend — how the
// replicated backend (replicated.go) is mounted.
func OpenBackend(be Backend) (*Store, error) {
	if err := be.MkdirAll("jobs"); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{be: be, lockStale: 30 * time.Second}, nil
}

// SetLockStale overrides how old an abandoned per-job mutation lock may
// grow before claim operations break it. Production never needs this;
// tests use it to exercise crash-failover without waiting 30s.
func (s *Store) SetLockStale(d time.Duration) {
	if d > 0 {
		s.lockStale = d
	}
}

// Dir returns the backend's local root directory.
func (s *Store) Dir() string { return s.be.Root() }

// Backend returns the store's backing primitive layer.
func (s *Store) Backend() Backend { return s.be }

// jobRel returns the backend-relative directory of one job. Callers
// must have validated the ID (every public method does).
func jobRel(id string) string {
	return path.Join("jobs", id)
}

// CreateJob persists a newly admitted job: its directory, the request
// table, and the initial manifest — in that order, so a manifest on
// disk implies its request is readable.
func (s *Store) CreateJob(m *Manifest, header []string, rows [][]string) error {
	b, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	dir := jobRel(m.ID)
	if err := s.be.MkdirAll(path.Join(dir, "checkpoints")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.writeCSV(path.Join(dir, "request.csv"), header, rows); err != nil {
		return err
	}
	return s.be.WriteAtomic(path.Join(dir, "manifest.json"), b)
}

// ReadManifest loads and validates one job's manifest.
func (s *Store) ReadManifest(id string) (*Manifest, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	b, err := s.be.ReadFile(path.Join(jobRel(id), "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return DecodeManifest(b)
}

// ReadRequest loads the job's submitted table.
func (s *Store) ReadRequest(id string) (header []string, rows [][]string, err error) {
	return s.readCSV(id, "request.csv")
}

// WriteResult spools the job's release. Called before the manifest
// flips to succeeded, so a succeeded manifest implies a readable
// result.
func (s *Store) WriteResult(id string, header []string, rows [][]string) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	return s.writeCSV(path.Join(jobRel(id), "result.csv"), header, rows)
}

// ReadResult loads the job's release.
func (s *Store) ReadResult(id string) (header []string, rows [][]string, err error) {
	return s.readCSV(id, "result.csv")
}

// readCSV loads one of the job's CSV spools through the shared codec.
func (s *Store) readCSV(id, name string) (header []string, rows [][]string, err error) {
	if err := ValidateID(id); err != nil {
		return nil, nil, err
	}
	b, err := s.be.ReadFile(path.Join(jobRel(id), name))
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	header, rows, err = relation.ReadCSVRows(bytes.NewReader(b))
	if err != nil {
		return nil, nil, fmt.Errorf("store: reading %s for job %s: %w", name, id, err)
	}
	return header, rows, nil
}

// Jobs scans the store and returns every decodable manifest, oldest
// submission first (ties broken by ID) so recovery re-enqueues in the
// original admission order. Entries that are not job directories or
// whose manifests do not decode are reported in skipped — the caller
// decides whether to warn; one corrupt directory never hides the rest.
func (s *Store) Jobs() (manifests []*Manifest, skipped []string, err error) {
	entries, err := s.be.List("jobs")
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if !e.Dir || ValidateID(e.Name) != nil {
			skipped = append(skipped, e.Name)
			continue
		}
		m, err := s.ReadManifest(e.Name)
		if err != nil || m.ID != e.Name {
			skipped = append(skipped, e.Name)
			continue
		}
		manifests = append(manifests, m)
	}
	sort.Slice(manifests, func(i, j int) bool {
		if !manifests[i].SubmittedAt.Equal(manifests[j].SubmittedAt) {
			return manifests[i].SubmittedAt.Before(manifests[j].SubmittedAt)
		}
		return manifests[i].ID < manifests[j].ID
	})
	return manifests, skipped, nil
}

// FindIdempotent returns the oldest manifest carrying the given
// idempotency key, or nil when no admitted job used it. The scan runs
// over the same manifests recovery trusts, so the answer spans every
// node writing to this store (shared directory) or everything the
// replication loop has converged (replicated backend).
func (s *Store) FindIdempotent(key string) (*Manifest, error) {
	if err := ValidateIdempotencyKey(key); err != nil {
		return nil, err
	}
	manifests, _, err := s.Jobs()
	if err != nil {
		return nil, err
	}
	for _, m := range manifests {
		if m.IdempotencyKey == key {
			return m, nil
		}
	}
	return nil, nil
}

// Checkpoint returns the job's block-checkpoint sink for the stream
// pipeline. The header is spooled with every block so the files are
// self-describing CSV.
func (s *Store) Checkpoint(id string, header []string) (*Checkpoint, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	dir := path.Join(jobRel(id), "checkpoints")
	if err := s.be.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Checkpoint{be: s.be, dir: dir, header: append([]string(nil), header...)}, nil
}

// Checkpoint spools completed stream blocks for one job. It implements
// stream.Checkpoint: Save is called concurrently by block workers (each
// block owns distinct files, so no locking is needed), Load replays a
// block on resume. The stat JSON is written after the row CSV and acts
// as the commit marker: a crash between the two leaves a CSV without a
// stat, which Load treats as "not checkpointed".
type Checkpoint struct {
	be     Backend
	dir    string
	header []string
}

var _ stream.Checkpoint = (*Checkpoint)(nil)

// blockBase names a block's spool files; zero-padded so lexical order
// is row order.
func blockBase(lo, hi int) string {
	return fmt.Sprintf("block-%09d-%09d", lo, hi)
}

// Save durably records one completed block: rows first, stat second.
func (c *Checkpoint) Save(stat stream.BlockStat, rows [][]string) error {
	base := path.Join(c.dir, blockBase(stat.Lo, stat.Hi))
	var buf bytes.Buffer
	if err := relation.WriteCSVRows(&buf, c.header, rows); err != nil {
		return fmt.Errorf("store: encoding %s: %w", path.Base(base)+".csv", err)
	}
	if err := c.be.WriteAtomic(base+".csv", buf.Bytes()); err != nil {
		return err
	}
	b, err := json.Marshal(&stat)
	if err != nil {
		return fmt.Errorf("store: encoding block stat: %w", err)
	}
	return c.be.WriteAtomic(base+".stat.json", append(b, '\n'))
}

// Load replays the block [lo, hi) if both of its spool files are
// present and parse. Anything short of that — missing files, torn or
// foreign content — is ok=false: recomputing a block is always safe,
// so the sink never turns a damaged checkpoint into a fatal error.
func (c *Checkpoint) Load(lo, hi int) (rows [][]string, stat *stream.BlockStat, ok bool, err error) {
	base := path.Join(c.dir, blockBase(lo, hi))
	sb, err := c.be.ReadFile(base + ".stat.json")
	if err != nil {
		return nil, nil, false, nil
	}
	var st stream.BlockStat
	if json.Unmarshal(sb, &st) != nil || st.Lo != lo || st.Hi != hi {
		return nil, nil, false, nil
	}
	rb, err := c.be.ReadFile(base + ".csv")
	if err != nil {
		return nil, nil, false, nil
	}
	header, rows, err := relation.ReadCSVRows(bytes.NewReader(rb))
	if err != nil || len(header) != len(c.header) {
		return nil, nil, false, nil
	}
	return rows, &st, true, nil
}

// writeCSV spools a header+rows table through the shared codec, then
// commits it atomically.
func (s *Store) writeCSV(rel string, header []string, rows [][]string) error {
	var buf bytes.Buffer
	if err := relation.WriteCSVRows(&buf, header, rows); err != nil {
		return fmt.Errorf("store: encoding %s: %w", path.Base(rel), err)
	}
	return s.be.WriteAtomic(rel, buf.Bytes())
}

// notExist reports whether err means "no such file", unwrapping the
// store's error decoration.
func notExist(err error) bool { return errors.Is(err, os.ErrNotExist) }
