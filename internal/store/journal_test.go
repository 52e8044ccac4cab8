package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func journalStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateJob(testManifest("job-j"), []string{"a"}, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJournalAppendRead(t *testing.T) {
	s := journalStore(t)
	if b, err := s.ReadJournal("job-j"); err != nil || b != nil {
		t.Fatalf("fresh job journal: %q, %v (want empty, nil)", b, err)
	}
	lines := []string{
		`{"event":"submitted"}` + "\n",
		`{"event":"claimed"}` + "\n",
		`{"event":"succeeded"}` + "\n",
	}
	for _, l := range lines {
		if err := s.AppendJournal("job-j", []byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.ReadJournal("job-j")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != strings.Join(lines, "") {
		t.Errorf("journal = %q, want the three lines in order", got)
	}
}

func TestJournalAppendRejectsUnterminated(t *testing.T) {
	s := journalStore(t)
	for _, bad := range [][]byte{nil, {}, []byte(`{"event":"claimed"}`)} {
		if err := s.AppendJournal("job-j", bad); err == nil {
			t.Errorf("append accepted %q without a trailing newline", bad)
		}
	}
	if err := s.AppendJournal("../etc", []byte("x\n")); err == nil {
		t.Error("append accepted a path-traversal job id")
	}
}

// TestJournalAppendDropsTornTail: a torn tail left by a crashed writer
// is discarded before the next complete line lands, so the spool only
// ever grows by complete lines.
func TestJournalAppendDropsTornTail(t *testing.T) {
	s := journalStore(t)
	if err := s.AppendJournal("job-j", []byte("{\"event\":\"submitted\"}\n")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), "jobs", "job-j", "events.jsonl")
	// Simulate a crash mid-append: a partial line with no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"cla`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := s.AppendJournal("job-j", []byte("{\"event\":\"failed\"}\n")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadJournal("job-j")
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"event\":\"submitted\"}\n{\"event\":\"failed\"}\n"
	if string(got) != want {
		t.Errorf("after torn tail, journal = %q, want %q", got, want)
	}
}

// TestJournalConcurrentAppends: the per-job lock serializes appends —
// every line survives intact, none interleave.
func TestJournalConcurrentAppends(t *testing.T) {
	s := journalStore(t)
	const n = 20
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			line := fmt.Sprintf(`{"i":%d}`+"\n", i)
			if err := s.AppendJournal("job-j", []byte(line)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, err := s.ReadJournal("job-j")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimSuffix(string(got), "\n"), "\n")
	if len(gotLines) != n {
		t.Fatalf("got %d lines, want %d:\n%s", len(gotLines), n, got)
	}
	seen := map[string]bool{}
	for _, l := range gotLines {
		if !strings.HasPrefix(l, `{"i":`) || !strings.HasSuffix(l, "}") {
			t.Errorf("interleaved or torn line %q", l)
		}
		seen[l] = true
	}
	if len(seen) != n {
		t.Errorf("lost lines: %d distinct of %d", len(seen), n)
	}
}

// TestTraceWriteIsFenced: once a thief holds a job, the displaced
// owner's trace flush is refused and leaves the thief's trace.json as
// it was, both while the thief runs and after it has finished and
// dropped the lease.
func TestTraceWriteIsFenced(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		s := open()
		createJobs(t, s, "job-1")
		now := time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC)
		a, _, err := s.ClaimJob("job-1", "node-a", time.Second, now)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.WriteTraceFenced("job-1", "node-a", a.Fence, []byte(`{"owner":"a"}`)); err != nil {
			t.Fatal(err)
		}
		b, stolen, err := s.ClaimJob("job-1", "node-b", time.Minute, now.Add(time.Second))
		if err != nil || !stolen {
			t.Fatalf("steal: stolen=%v err=%v", stolen, err)
		}
		thief := []byte(`{"owner":"b"}`)
		if err := s.WriteTraceFenced("job-1", "node-b", b.Fence, thief); err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			if err := s.WriteTraceFenced("job-1", "node-a", a.Fence, []byte(`{"owner":"a","late":true}`)); !errors.Is(err, ErrFenced) {
				t.Fatalf("%s: displaced owner's flush: err = %v, want ErrFenced", when, err)
			}
			if got, err := s.ReadTrace("job-1"); err != nil || string(got) != string(thief) {
				t.Fatalf("%s: trace = %q, %v; want the thief's %q", when, got, err, thief)
			}
		}
		check("thief running")
		if _, err := s.UpdateClaimed("job-1", "node-b", b.Fence, func(m *Manifest) error {
			m.State = StateSucceeded
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		check("thief finished")
	})
}

func TestTraceRoundTrip(t *testing.T) {
	s := journalStore(t)
	if b, err := s.ReadTrace("job-j"); err != nil || b != nil {
		t.Fatalf("fresh job trace: %q, %v (want nil, nil)", b, err)
	}
	v1 := []byte(`{"spans":[{"name":"job@a"}]}`)
	if err := s.WriteTrace("job-j", v1); err != nil {
		t.Fatal(err)
	}
	// Last write wins: each flush is a fuller view of the same timeline.
	v2 := []byte(`{"spans":[{"name":"job@a"},{"name":"job@b"}]}`)
	if err := s.WriteTrace("job-j", v2); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadTrace("job-j")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(v2) {
		t.Errorf("trace = %q, want %q", got, v2)
	}
	if err := s.WriteTrace("bad/../id", v1); err == nil {
		t.Error("WriteTrace accepted a path-traversal job id")
	}
}
