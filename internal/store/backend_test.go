package store

import (
	"errors"
	"os"
	"testing"
)

// forEachBackend runs fn once per Backend implementation, as subtests
// named after it. Each call of open returns a new Store handle over the
// subtest's one substrate, the way separate processes sharing a data
// directory each hold their own handle.
func forEachBackend(t *testing.T, fn func(t *testing.T, open func() *Store)) {
	t.Run("local", func(t *testing.T) {
		dir := t.TempDir()
		fn(t, func() *Store {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
	t.Run("memory", func(t *testing.T) {
		mem := NewMemory()
		fn(t, func() *Store {
			s, err := OpenBackend(mem)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
	})
}

// createJobs persists queued jobs with a three-row request.
func createJobs(t *testing.T, s *Store, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.CreateJob(testManifest(id), []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackendPathErrors: a missing file or parent directory reports
// os.ErrNotExist on every backend — the store branches on it for empty
// journals and reaped jobs — and a file where a directory belongs (or
// the reverse) is an error, not a silent overwrite.
func TestBackendPathErrors(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		be := open().Backend()
		_, readErr := be.ReadFile("no-such")
		_, listErr := be.List("no-such")
		_, _, statErr := be.Stat("no-such")
		for op, err := range map[string]error{
			"write":  be.WriteAtomic("no-such/f", []byte("x")),
			"lock":   be.TryLock("no-such/f.lock"),
			"remove": be.Remove("no-such"),
			"read":   readErr,
			"list":   listErr,
			"stat":   statErr,
		} {
			if !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s of a missing path: %v, want os.ErrNotExist", op, err)
			}
		}
		if err := be.WriteAtomic("f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := be.MkdirAll("f/sub"); err == nil {
			t.Error("MkdirAll through a file succeeded")
		}
		if err := be.WriteAtomic("jobs", []byte("x")); err == nil {
			t.Error("WriteAtomic over a directory succeeded")
		}
		if size, _, err := be.Stat("f"); err != nil || size != 1 {
			t.Errorf("stat f: size %d, %v", size, err)
		}
	})
}

// TestRemoveAllUnderLock: removing a job directory takes its held lock
// file with it — the step ReapTerminal relies on — after which the lock
// is gone, a new attempt reports the directory missing rather than a
// held lock, and removing the directory again is a no-op.
func TestRemoveAllUnderLock(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func() *Store) {
		be := open().Backend()
		if err := be.MkdirAll("jobs/j/checkpoints"); err != nil {
			t.Fatal(err)
		}
		if err := be.WriteAtomic("jobs/j/checkpoints/b.csv", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := be.TryLock("jobs/j/manifest.lock"); err != nil {
			t.Fatal(err)
		}
		if err := be.TryLock("jobs/j/manifest.lock"); !errors.Is(err, os.ErrExist) {
			t.Fatalf("second lock: %v, want os.ErrExist", err)
		}
		if err := be.RemoveAll("jobs/j"); err != nil {
			t.Fatal(err)
		}
		if err := be.Remove("jobs/j/manifest.lock"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("unlock after RemoveAll: %v, want os.ErrNotExist", err)
		}
		if err := be.TryLock("jobs/j/manifest.lock"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("lock in a removed directory: %v, want os.ErrNotExist", err)
		}
		if entries, err := be.List("jobs"); err != nil || len(entries) != 0 {
			t.Errorf("jobs after RemoveAll: %v, %v", entries, err)
		}
		if err := be.RemoveAll("jobs/j"); err != nil {
			t.Errorf("RemoveAll of nothing: %v", err)
		}
	})
}

// TestMemoryRootRemoval: like removing Local's data directory, removing
// the in-memory root leaves nothing, and MkdirAll rebuilds the path.
func TestMemoryRootRemoval(t *testing.T) {
	mem := NewMemory()
	if err := mem.WriteAtomic("f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := mem.RemoveAll(""); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.List(""); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("list of a removed root: %v", err)
	}
	if err := mem.MkdirAll("jobs/a"); err != nil {
		t.Fatal(err)
	}
	if entries, err := mem.List(""); err != nil || len(entries) != 1 || entries[0] != (Entry{Name: "jobs", Dir: true}) {
		t.Fatalf("rebuilt root lists %v, %v", entries, err)
	}
	if mem.Root() != "" {
		t.Errorf("Root() = %q, want empty", mem.Root())
	}
}
