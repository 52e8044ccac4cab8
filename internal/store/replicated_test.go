package store

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kanon/internal/stream"
)

// serveReplica exposes src's replication surface over HTTP the way
// internal/server does, so Replicated can be exercised against real
// request/response plumbing without a kanond process.
func serveReplica(t *testing.T, src *Store) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/replica/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs, err := src.ReplicaJobs()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_ = json.NewEncoder(w).Encode(jobs)
	})
	mux.HandleFunc("GET /v1/replica/jobs/{id}/file", func(w http.ResponseWriter, r *http.Request) {
		b, err := src.ReadJobFile(r.PathValue("id"), r.URL.Query().Get("name"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		_, _ = w.Write(b)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// openReplicatedAt mounts a replicated store pulling from the given
// peer servers.
func openReplicatedAt(t *testing.T, peers ...*httptest.Server) (*Store, *Replicated) {
	t.Helper()
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.URL
	}
	st, repl, err := OpenReplicated(t.TempDir(), urls, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st, repl
}

func TestPickManifestOrder(t *testing.T) {
	at := func(sec int) *time.Time {
		ts := time.Date(2026, 1, 2, 3, 4, sec, 0, time.UTC)
		return &ts
	}
	mk := func(state string, fence uint64, node string, expSec int) *Manifest {
		m := testManifest("job-m")
		m.State = state
		m.Fence = fence
		if state == StateRunning {
			m.Claim = &Claim{Node: node, Expires: *at(expSec)}
		}
		if m.Terminal() {
			m.FinishedAt = at(1)
		}
		return m
	}
	cases := []struct {
		name          string
		local, remote *Manifest
		wantRemote    bool
	}{
		{"terminal beats running", mk(StateRunning, 5, "node-a", 10), mk(StateSucceeded, 3, "", 0), true},
		{"terminal beats queued locally", mk(StateFailed, 2, "", 0), mk(StateQueued, 9, "", 0), false},
		{"both terminal, higher fence wins", mk(StateSucceeded, 1, "", 0), mk(StateCanceled, 2, "", 0), true},
		{"both terminal, tie keeps local", mk(StateSucceeded, 2, "", 0), mk(StateFailed, 2, "", 0), false},
		{"higher fence wins", mk(StateQueued, 1, "", 0), mk(StateRunning, 2, "node-b", 10), true},
		{"equal fence, running beats queued", mk(StateQueued, 3, "", 0), mk(StateRunning, 3, "node-b", 10), true},
		{"equal fence, both queued keeps local", mk(StateQueued, 0, "", 0), mk(StateQueued, 0, "", 0), false},
		{"same claimant, later lease wins", mk(StateRunning, 3, "node-a", 10), mk(StateRunning, 3, "node-a", 20), true},
		{"same claimant, older lease loses", mk(StateRunning, 3, "node-a", 20), mk(StateRunning, 3, "node-a", 10), false},
		{"split claim, lexically smaller node wins", mk(StateRunning, 3, "node-b", 10), mk(StateRunning, 3, "node-a", 10), true},
		{"split claim, local already smaller", mk(StateRunning, 3, "node-a", 10), mk(StateRunning, 3, "node-b", 10), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pickManifest(tc.local, tc.remote)
			want := tc.local
			if tc.wantRemote {
				want = tc.remote
			}
			if got != want {
				t.Errorf("picked %+v", got)
			}
		})
	}
}

func TestMergeManifestsCancelPropagates(t *testing.T) {
	local := testManifest("job-m")
	local.CancelRequested = true
	remote := testManifest("job-m")
	remote.State = StateRunning
	remote.Fence = 2
	remote.Claim = &Claim{Node: "node-b", Expires: time.Date(2026, 1, 2, 4, 0, 0, 0, time.UTC)}

	merged := mergeManifests(local, remote)
	if merged.State != StateRunning || !merged.CancelRequested {
		t.Fatalf("merged = %+v: remote must win but carry the local cancel", merged)
	}
	if remote.CancelRequested {
		t.Error("mergeManifests mutated its input")
	}
	if merged.Claim == remote.Claim {
		t.Error("merged manifest shares the remote's Claim pointer")
	}

	// A terminal winner stays terminal: no cancel resurrection.
	done := testManifest("job-m")
	done.State = StateSucceeded
	fin := time.Date(2026, 1, 2, 5, 0, 0, 0, time.UTC)
	done.FinishedAt = &fin
	done.Fence = 3
	if m := mergeManifests(local, done); m.CancelRequested {
		t.Errorf("terminal winner gained cancel_requested: %+v", m)
	}
}

func TestUnionJournal(t *testing.T) {
	local := []byte("a\nb\ntorn-loc")
	remote := []byte("b\nc\na\ntorn-rem")
	merged, changed := unionJournal(local, remote)
	if !changed {
		t.Fatal("union with new remote lines reported no change")
	}
	if got := string(merged); got != "a\nb\nc\n" {
		t.Fatalf("merged = %q: want local order, then unseen remote lines, torn tails dropped", got)
	}

	again, changed := unionJournal(merged, remote)
	if changed || string(again) != "a\nb\nc\n" {
		t.Fatalf("re-merge changed=%v %q: union must be idempotent", changed, again)
	}

	if m, changed := unionJournal(nil, []byte("x\ny\n")); !changed || string(m) != "x\ny\n" {
		t.Fatalf("empty local: %q", m)
	}
	if _, changed := unionJournal([]byte("x\n"), nil); changed {
		t.Fatal("empty remote reported a change")
	}
}

func TestValidateReplicaFile(t *testing.T) {
	for _, ok := range []string{"request.csv", "result.csv", "events.jsonl", "trace.json",
		"checkpoints/block-000000000-000000010.csv", "checkpoints/block-000000000-000000010.stat.json"} {
		if err := ValidateReplicaFile(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"manifest.json", ".lock", "../request.csv",
		"checkpoints/../manifest.json", "checkpoints/evil", "checkpoints/block-a/b", ""} {
		if err := ValidateReplicaFile(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestValidateIdempotencyKey(t *testing.T) {
	for _, ok := range []string{"k", "client-key-1", "a1:b2.c3_d4", strings.Repeat("x", 128)} {
		if err := ValidateIdempotencyKey(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "-leading", strings.Repeat("x", 129), "sp ace", "new\nline", "sla/sh"} {
		if err := ValidateIdempotencyKey(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestFindIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	early := testManifest("job-early")
	early.IdempotencyKey = "key-1"
	late := testManifest("job-late")
	late.IdempotencyKey = "key-1"
	late.SubmittedAt = early.SubmittedAt.Add(time.Hour)
	other := testManifest("job-other")
	for _, m := range []*Manifest{late, early, other} {
		if err := s.CreateJob(m, []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
			t.Fatal(err)
		}
	}

	got, err := s.FindIdempotent("key-1")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ID != "job-early" {
		t.Fatalf("FindIdempotent = %+v, want the oldest binding job-early", got)
	}
	if got, err := s.FindIdempotent("key-none"); err != nil || got != nil {
		t.Fatalf("unknown key: %+v, %v", got, err)
	}
	if _, err := s.FindIdempotent("bad key"); err == nil {
		t.Error("invalid key accepted")
	}
}

func TestReplicaJobsAndReadJobFile(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateJob(testManifest("job-r"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendJournal("job-r", []byte(`{"ev":"admitted"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint("job-r", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(stream.BlockStat{Lo: 0, Hi: 3, Cost: 1}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}

	jobs, err := s.ReplicaJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Manifest.ID != "job-r" {
		t.Fatalf("jobs = %+v", jobs)
	}
	names := make(map[string]int64)
	for _, f := range jobs[0].Files {
		names[f.Name] = f.Size
	}
	for _, want := range []string{"request.csv", "events.jsonl",
		"checkpoints/block-000000000-000000003.csv", "checkpoints/block-000000000-000000003.stat.json"} {
		if names[want] <= 0 {
			t.Errorf("listing missing %s (files: %v)", want, names)
		}
	}
	if _, ok := names["manifest.json"]; ok {
		t.Error("manifest advertised as a pullable file")
	}

	if _, err := s.ReadJobFile("job-r", "manifest.json"); err == nil {
		t.Error("ReadJobFile served the manifest")
	}
	if b, err := s.ReadJobFile("job-r", "events.jsonl"); err != nil || !strings.Contains(string(b), "admitted") {
		t.Errorf("journal read: %q, %v", b, err)
	}
}

// TestSyncAdoptsJob: a never-seen job — spools, journal, checkpoint
// blocks — materializes byte-identically on the puller.
func TestSyncAdoptsJob(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CreateJob(testManifest("job-a"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendJournal("job-a", []byte(`{"ev":"admitted"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := src.WriteResult("job-a", []string{"a"}, [][]string{{"*"}, {"*"}, {"*"}}); err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint("job-a", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(stream.BlockStat{Lo: 0, Hi: 3, Cost: 2}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}

	dst, repl := openReplicatedAt(t, serveReplica(t, src))
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}

	m, err := dst.ReadManifest("job-a")
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "job-a" || m.State != StateQueued {
		t.Fatalf("adopted manifest = %+v", m)
	}
	for _, name := range []string{"request.csv", "result.csv", "events.jsonl",
		"checkpoints/block-000000000-000000003.csv", "checkpoints/block-000000000-000000003.stat.json"} {
		want, err := src.ReadJobFile("job-a", name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.ReadJobFile("job-a", name)
		if err != nil {
			t.Fatalf("%s not adopted: %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs after adopt", name)
		}
	}
	// Idempotent: a second round writes nothing new and errors nothing.
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
}

// TestSyncMergesNewerFence: a claim taken on the peer (higher fence)
// overwrites the puller's stale queued record.
func TestSyncMergesNewerFence(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CreateJob(testManifest("job-f"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}

	dst, repl := openReplicatedAt(t, serveReplica(t, src))
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}

	// The peer claims the job after the first pull.
	if _, _, err := src.ClaimJob("job-f", "node-b", 15*time.Second, time.Now()); err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
	m, err := dst.ReadManifest("job-f")
	if err != nil {
		t.Fatal(err)
	}
	if m.State != StateRunning || m.Fence != 1 || m.Claim == nil || m.Claim.Node != "node-b" {
		t.Fatalf("claim did not propagate: %+v", m)
	}

	// And a local terminal record must never be clobbered by the peer's
	// stale running copy.
	fin := time.Now().UTC()
	m.State = StateSucceeded
	m.Claim = nil
	m.FinishedAt = &fin
	b, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Backend().WriteAtomic("jobs/job-f/manifest.json", b); err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
	if m2, _ := dst.ReadManifest("job-f"); m2 == nil || m2.State != StateSucceeded {
		t.Fatalf("stale remote running record resurrected the job: %+v", m2)
	}
}

// TestSyncSkipsOldTerminal: jobs that finished longer than the adopt
// grace ago stay with the janitor; pulling them back would churn
// against reaping.
func TestSyncSkipsOldTerminal(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := testManifest("job-old")
	old.State = StateSucceeded
	fin := time.Now().Add(-time.Hour)
	old.FinishedAt = &fin
	if err := src.CreateJob(old, []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	fresh := testManifest("job-fresh")
	fresh.State = StateSucceeded
	fin2 := time.Now().Add(-time.Minute)
	fresh.FinishedAt = &fin2
	if err := src.CreateJob(fresh, []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}

	dst, repl := openReplicatedAt(t, serveReplica(t, src))
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ReadManifest("job-old"); err == nil {
		t.Error("job finished beyond the grace window was adopted")
	}
	if _, err := dst.ReadManifest("job-fresh"); err != nil {
		t.Errorf("recently finished job not adopted: %v", err)
	}
}

// TestSyncJournalUnion: lines appended on both sides converge to one
// journal holding every line exactly once.
func TestSyncJournalUnion(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CreateJob(testManifest("job-j"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendJournal("job-j", []byte(`{"ev":"admitted","node":"src"}`+"\n")); err != nil {
		t.Fatal(err)
	}

	dst, repl := openReplicatedAt(t, serveReplica(t, src))
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
	// Both sides write after the adopt.
	if err := dst.AppendJournal("job-j", []byte(`{"ev":"claimed","node":"dst"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := src.AppendJournal("job-j", []byte(`{"ev":"claimed","node":"src"}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(time.Now()); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ReadJournal("job-j")
	if err != nil {
		t.Fatal(err)
	}
	want := `{"ev":"admitted","node":"src"}` + "\n" +
		`{"ev":"claimed","node":"dst"}` + "\n" +
		`{"ev":"claimed","node":"src"}` + "\n"
	if string(got) != want {
		t.Fatalf("journal after union:\n%s\nwant:\n%s", got, want)
	}
}

// TestSyncSurvivesDeadPeer: an unreachable peer is an error from
// SyncOnce but leaves local state untouched — the loop just tries
// again next round.
func TestSyncSurvivesDeadPeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	st, repl, err := OpenReplicated(t.TempDir(), []string{dead.URL}, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateJob(testManifest("job-l"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(time.Now()); err == nil {
		t.Error("dead peer produced no error")
	}
	if _, err := st.ReadManifest("job-l"); err != nil {
		t.Errorf("local job damaged by failed sync: %v", err)
	}
}

// TestStartStopSync: the background loop starts, pulls, and stops
// cleanly; StopSync without StartSync is a no-op.
func TestStartStopSync(t *testing.T) {
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.CreateJob(testManifest("job-bg"), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
		t.Fatal(err)
	}
	srv := serveReplica(t, src)
	dst, repl, err := OpenReplicated(t.TempDir(), []string{srv.URL}, ReplicateOptions{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	repl.StartSync()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := dst.ReadManifest("job-bg"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never adopted the job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	repl.StopSync()
	repl.StopSync() // idempotent

	_, neverStarted, err := OpenReplicated(t.TempDir(), []string{srv.URL}, ReplicateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	neverStarted.StopSync() // must not hang
}
