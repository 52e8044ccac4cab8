// The Replicated backend: a full local copy per node plus a pull loop
// that converges job state across peers, so a cluster runs with no
// shared filesystem.
//
// Locally it IS a Local backend — every correctness property the store
// argues from its primitives (atomic replacement, O_EXCL locks) holds
// unchanged, and node-local claim mutations stay serialized through
// the same per-job lock. What replication adds is anti-entropy: every
// interval, each node asks each peer for its job inventory
// (GET /v1/replica/jobs) and
//
//   - adopts jobs it has never seen (spools first, manifest last, so a
//     half-adopted job is invisible exactly like a half-created one);
//   - merges manifests it already has under the job's mutation lock,
//     using the deterministic total order in merge.go (fencing tokens
//     are the version clock);
//   - pulls immutable spools it is missing (request, result, committed
//     checkpoint blocks — all deterministic, so byte-identical wherever
//     they were produced);
//   - union-appends the event journal (each node's lines are internally
//     ordered; unseen remote lines append in remote order) and refreshes
//     the trace snapshot when the remote record won the merge.
//
// Pulling is symmetric — every node pulls from every peer — so state
// spreads even when only one direction of a link works. The loop is
// deliberately dumb: no deltas, no leadership, just "what do you have
// that I don't, and whose manifest is newer". Inventory payloads are
// manifest-sized, file fetches happen once per missing file, and the
// journal is refetched only when its advertised size changes.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path"
	"sync"
	"time"
)

// ReplicateOptions tune the pull loop. The zero value is usable.
type ReplicateOptions struct {
	// Interval between pull rounds. Default 500ms — well under the
	// default lease TTL (15s), so lease renewals propagate long before
	// a peer would judge the lease expired and steal a live job.
	Interval time.Duration
	// Timeout bounds each peer HTTP request. Default 10s.
	Timeout time.Duration
	// AdoptTerminalGrace stops a node from adopting a never-seen job
	// that finished longer than this ago — such a job is either reaped
	// locally already or about to be reaped everywhere, and pulling it
	// back would churn against the janitor. Default 10m.
	AdoptTerminalGrace time.Duration
	// Client overrides the HTTP client (tests). When set, Timeout is
	// ignored.
	Client *http.Client
}

// Replicated is the no-shared-filesystem Backend: a Local copy of
// everything plus the pull loop that keeps it converged with peers.
type Replicated struct {
	*Local
	peers []string
	opts  ReplicateOptions

	st *Store // the store this backend serves; set by OpenReplicated

	mu          sync.Mutex
	journalSeen map[string]int64 // "peer|job" → last merged remote journal size

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// OpenReplicated mounts a store over a Replicated backend: a private
// local data directory plus the peer set to converge with. Peers are
// base URLs of the other nodes' kanond listeners (the replication
// endpoints live on the same mux as the job API). The returned
// Replicated is idle until StartSync.
func OpenReplicated(dir string, peers []string, opts ReplicateOptions) (*Store, *Replicated, error) {
	local, err := NewLocal(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(peers) == 0 {
		return nil, nil, fmt.Errorf("store: replicated backend needs at least one peer")
	}
	clean := make([]string, 0, len(peers))
	for _, p := range peers {
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, nil, fmt.Errorf("store: replication peer %q is not an absolute URL", p)
		}
		clean = append(clean, (&url.URL{Scheme: u.Scheme, Host: u.Host}).String())
	}
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.AdoptTerminalGrace <= 0 {
		opts.AdoptTerminalGrace = 10 * time.Minute
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: opts.Timeout}
	}
	r := &Replicated{
		Local:       local,
		peers:       clean,
		opts:        opts,
		journalSeen: make(map[string]int64),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	st, err := OpenBackend(r)
	if err != nil {
		return nil, nil, err
	}
	r.st = st
	return st, r, nil
}

// Peers returns the normalized peer base URLs.
func (r *Replicated) Peers() []string { return append([]string(nil), r.peers...) }

// StartSync launches the pull loop. Call once, after the local HTTP
// listener is up (peers pull from us independently; our loop only
// needs them to be reachable eventually).
func (r *Replicated) StartSync() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			t := time.NewTicker(r.opts.Interval)
			defer t.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-t.C:
					_ = r.SyncOnce(time.Now())
				}
			}
		}()
	})
}

// StopSync halts the pull loop and waits for the in-flight round to
// finish. Safe to call without StartSync.
func (r *Replicated) StopSync() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) }) // never started: nothing to wait for
	<-r.done
}

// SyncOnce runs one full anti-entropy round against every peer. Peer
// failures are collected, not fatal — a partitioned peer just means
// its state arrives later (possibly via another peer that can still
// reach it).
func (r *Replicated) SyncOnce(now time.Time) error {
	var errs []error
	for _, peer := range r.peers {
		if err := r.syncPeer(peer, now); err != nil {
			errs = append(errs, fmt.Errorf("peer %s: %w", peer, err))
		}
	}
	return errors.Join(errs...)
}

// syncPeer pulls one peer's inventory and converges every job in it.
func (r *Replicated) syncPeer(peer string, now time.Time) error {
	body, err := r.fetch(peer + "/v1/replica/jobs")
	if err != nil {
		return err
	}
	var jobs []ReplicaJob
	if err := json.Unmarshal(body, &jobs); err != nil {
		return fmt.Errorf("store: decoding replica listing: %w", err)
	}
	var errs []error
	for _, rj := range jobs {
		if rj.Manifest == nil || rj.Manifest.validate() != nil {
			continue // a peer running different software; skip, don't import
		}
		if err := r.syncJob(peer, rj, now); err != nil {
			errs = append(errs, fmt.Errorf("job %s: %w", rj.Manifest.ID, err))
		}
	}
	return errors.Join(errs...)
}

// syncJob converges one remote job record with the local copy.
func (r *Replicated) syncJob(peer string, rj ReplicaJob, now time.Time) error {
	id := rj.Manifest.ID
	_, err := r.st.ReadManifest(id)
	switch {
	case err != nil && notExist(err):
		return r.adoptJob(peer, rj, now)
	case err != nil:
		return err
	}
	remoteWon, err := r.mergeJob(id, rj.Manifest)
	if err != nil {
		// The job was reaped between the read and the merge, or is
		// mid-reap; skip quietly — the next round sees a clean state.
		if notExist(err) {
			return nil
		}
		return err
	}
	return r.pullFiles(peer, rj, remoteWon)
}

// adoptJob materializes a job this node has never seen: directory and
// spools first, manifest last, so the job becomes visible locally only
// once its request is readable — the same commit order CreateJob uses.
func (r *Replicated) adoptJob(peer string, rj ReplicaJob, now time.Time) error {
	m := rj.Manifest
	if m.Terminal() && m.FinishedAt != nil &&
		now.Sub(*m.FinishedAt) > r.opts.AdoptTerminalGrace {
		return nil // finished long ago; the janitor owns its fate
	}
	dir := jobRel(m.ID)
	if err := r.st.be.MkdirAll(path.Join(dir, "checkpoints")); err != nil {
		return err
	}
	gotRequest := false
	for _, f := range rj.Files {
		if err := r.pullFile(peer, m.ID, f.Name); err != nil {
			if f.Name == "request.csv" {
				return err // without the request the job cannot run or resume
			}
			continue // best-effort: the next round retries
		}
		if f.Name == "request.csv" {
			gotRequest = true
		}
	}
	if !gotRequest {
		return fmt.Errorf("store: peer listing for %s has no request.csv", m.ID)
	}
	b, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	r.rememberJournal(peer, m.ID, rj.Files)
	return r.st.be.WriteAtomic(path.Join(dir, "manifest.json"), b)
}

// mergeJob merges the remote manifest into the local one under the
// job's mutation lock, so the merge cannot interleave with a local
// claim transition. Reports whether the remote record won.
func (r *Replicated) mergeJob(id string, remote *Manifest) (remoteWon bool, err error) {
	unlock, _, err := r.st.lockJob(id)
	if err != nil {
		return false, err
	}
	defer unlock()
	b, err := r.st.be.ReadFile(path.Join(jobRel(id), "manifest.json"))
	if err != nil {
		return false, err
	}
	local, err := DecodeManifest(b)
	if err != nil {
		return false, err
	}
	merged := mergeManifests(local, remote)
	remoteWon = pickManifest(local, remote) == remote
	out, err := EncodeManifest(merged)
	if err != nil {
		return false, err
	}
	cur, err := EncodeManifest(local)
	if err != nil {
		return false, err
	}
	if string(out) == string(cur) {
		return remoteWon, nil // converged already; no write, no churn
	}
	return remoteWon, r.st.be.WriteAtomic(path.Join(jobRel(id), "manifest.json"), out)
}

// pullFiles fetches what the local copy is missing from one job's
// advertised spools. Immutable files (request, result, checkpoint
// blocks) are pulled iff absent; the journal is union-merged; the
// trace snapshot is refreshed when the remote manifest won (the
// remote's view of the timeline is the fresher one) or absent locally.
func (r *Replicated) pullFiles(peer string, rj ReplicaJob, remoteWon bool) error {
	id := rj.Manifest.ID
	var errs []error
	for _, f := range rj.Files {
		switch f.Name {
		case "events.jsonl":
			if err := r.mergeJournal(peer, id, f.Size); err != nil {
				errs = append(errs, err)
			}
		case "trace.json":
			_, _, statErr := r.st.be.Stat(path.Join(jobRel(id), f.Name))
			if remoteWon || notExist(statErr) {
				if err := r.pullFile(peer, id, f.Name); err != nil {
					errs = append(errs, err)
				}
			}
		default:
			if _, _, err := r.st.be.Stat(path.Join(jobRel(id), f.Name)); notExist(err) {
				if err := r.pullFile(peer, id, f.Name); err != nil {
					errs = append(errs, err)
				}
			}
		}
	}
	return errors.Join(errs...)
}

// pullFile fetches one spool file from a peer and commits it locally.
func (r *Replicated) pullFile(peer, id, name string) error {
	if err := ValidateReplicaFile(name); err != nil {
		return err
	}
	b, err := r.fetch(peer + "/v1/replica/jobs/" + url.PathEscape(id) + "/file?name=" + url.QueryEscape(name))
	if err != nil {
		return err
	}
	return r.st.be.WriteAtomic(path.Join(jobRel(id), name), b)
}

// mergeJournal union-appends the peer's journal lines into the local
// spool: local order is preserved, unseen remote lines append in
// remote order. Each writer's lines are internally ordered, and
// cross-node ordering is carried by the events themselves (fence,
// phase), so union-append preserves every per-node happens-before the
// journal promises. The advertised size gates refetching: a journal
// that has not grown since the last merge is skipped.
func (r *Replicated) mergeJournal(peer, id string, remoteSize int64) error {
	key := peer + "|" + id
	r.mu.Lock()
	seen := r.journalSeen[key]
	r.mu.Unlock()
	if remoteSize == seen {
		return nil
	}
	remote, err := r.fetch(peer + "/v1/replica/jobs/" + url.PathEscape(id) + "/file?name=events.jsonl")
	if err != nil {
		return err
	}
	unlock, _, err := r.st.lockJob(id)
	if err != nil {
		if notExist(err) {
			return nil // reaped underneath us
		}
		return err
	}
	defer unlock()
	local, err := r.st.be.ReadFile(path.Join(jobRel(id), "events.jsonl"))
	if err != nil && !notExist(err) {
		return err
	}
	merged, changed := unionJournal(local, remote)
	if changed {
		if err := r.st.be.WriteAtomic(path.Join(jobRel(id), "events.jsonl"), merged); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.journalSeen[key] = remoteSize
	r.mu.Unlock()
	return nil
}

// rememberJournal primes the journal-size cache after an adopt, where
// the spool was copied wholesale and needs no immediate re-merge.
func (r *Replicated) rememberJournal(peer, id string, files []ReplicaFile) {
	for _, f := range files {
		if f.Name == "events.jsonl" {
			r.mu.Lock()
			r.journalSeen[peer+"|"+id] = f.Size
			r.mu.Unlock()
		}
	}
}

// unionJournal merges two journal spools by complete lines: all of
// local (torn tail trimmed), then every remote line not already
// present, in remote order.
func unionJournal(local, remote []byte) (merged []byte, changed bool) {
	trim := func(b []byte) []byte {
		if len(b) == 0 || b[len(b)-1] == '\n' {
			return b
		}
		// Everything after the last newline is a torn tail from a
		// crashed writer; drop it.
		i := len(b) - 1
		for i >= 0 && b[i] != '\n' {
			i--
		}
		return b[:i+1]
	}
	local, remote = trim(local), trim(remote)
	seen := make(map[string]bool)
	for _, line := range splitLines(local) {
		seen[line] = true
	}
	merged = append([]byte(nil), local...)
	for _, line := range splitLines(remote) {
		if !seen[line] {
			seen[line] = true
			merged = append(merged, line...)
			merged = append(merged, '\n')
			changed = true
		}
	}
	return merged, changed
}

// splitLines splits a newline-terminated spool into its lines, without
// the terminators.
func splitLines(b []byte) []string {
	var out []string
	for len(b) > 0 {
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		out = append(out, string(b[:i]))
		if i == len(b) {
			break
		}
		b = b[i+1:]
	}
	return out
}

// maxReplicaBody bounds any single replication response. Spools are
// CSV tables the admission path already capped; this is a backstop
// against a confused peer, not a tuning knob.
const maxReplicaBody = 256 << 20

// fetch GETs one replication URL, returning the body on 200.
func (r *Replicated) fetch(u string) ([]byte, error) {
	resp, err := r.opts.Client.Get(u)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("store: %s answered %s", u, resp.Status)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReplicaBody+1))
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", u, err)
	}
	if len(b) > maxReplicaBody {
		return nil, fmt.Errorf("store: %s response exceeds %d bytes", u, int64(maxReplicaBody))
	}
	return b, nil
}
