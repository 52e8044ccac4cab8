// The Backend interface: the file primitives the Store (and the
// replication puller) are built on, extracted so the same job-store
// logic can run over more than one durability substrate.
//
// A Backend is deliberately dumb — atomic whole-file replacement,
// reads, listings, removal, and an O_EXCL lock-file create — because
// every correctness argument the store makes (manifest-as-commit-
// record, locked read-modify-write claims, torn-tail journal repair)
// reduces to exactly these primitives. Three implementations exist:
//
//   - Local: one disk directory, the original behavior. N processes
//     sharing the directory coordinate through the lock primitive.
//   - Replicated: a Local copy per node plus a pull loop that
//     converges job state across peers over HTTP (replicated.go), so
//     a cluster runs with no shared filesystem at all.
//   - Memory: process memory (memory.go), the store of a kanond run
//     without a data directory.
//
// Paths handed to a Backend are slash-separated and relative to the
// backend's root; callers (the Store) validate every path component
// before it gets here.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Entry is one directory-listing element a Backend reports.
type Entry struct {
	// Name is the entry's base name.
	Name string
	// Dir reports whether the entry is a directory.
	Dir bool
}

// Backend is the file-primitive surface the job store drives. All
// methods must be safe for concurrent use, including by other
// processes sharing the same substrate.
type Backend interface {
	// WriteAtomic commits data at rel so a concurrent reader sees
	// either the previous complete file or the new complete file,
	// never a torn one.
	WriteAtomic(rel string, data []byte) error
	// ReadFile returns the complete content at rel. A missing file
	// reports an error satisfying errors.Is(err, os.ErrNotExist).
	ReadFile(rel string) ([]byte, error)
	// MkdirAll ensures the directory rel (and parents) exists.
	MkdirAll(rel string) error
	// Remove deletes the single file rel; missing files are an error
	// (os.Remove semantics), so lock-release races stay visible.
	Remove(rel string) error
	// RemoveAll deletes rel recursively; removing nothing is a no-op.
	RemoveAll(rel string) error
	// List returns the entries of directory rel.
	List(rel string) ([]Entry, error)
	// TryLock atomically creates the lock file rel. Exactly one caller
	// (across every process sharing the substrate) can succeed while
	// the file exists; a held lock reports an error satisfying
	// errors.Is(err, os.ErrExist).
	TryLock(rel string) error
	// Stat returns rel's size and modification time — how lock
	// staleness is judged and how the replication loop detects journal
	// growth without refetching.
	Stat(rel string) (size int64, mtime time.Time, err error)
	// Root is the backend's local root directory: Local's directory,
	// the replicated backend's full local copy, and empty for Memory,
	// whose files exist only in the process.
	Root() string
}

// Local is the disk Backend: one data directory, every write landing
// via write-to-temp + fsync + rename.
type Local struct {
	root string
}

// NewLocal returns a Local backend rooted at dir.
func NewLocal(dir string) (*Local, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty data directory")
	}
	return &Local{root: dir}, nil
}

// abs resolves a backend-relative slash path against the root.
func (l *Local) abs(rel string) string {
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// Root returns the backing directory.
func (l *Local) Root() string { return l.root }

// WriteAtomic writes data to a same-directory temp file, fsyncs, and
// renames it over rel — the only write primitive in the store, so
// every on-disk file is either absent or complete. The temp name is
// unique per writer: in cluster mode two nodes may race to write the
// same (deterministic, byte-identical) spool, and a shared temp name
// would let their writes interleave into a torn file before the rename.
func (l *Local) WriteAtomic(rel string, data []byte) error {
	path := l.abs(rel)
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	merr := f.Chmod(0o644)
	serr := f.Sync()
	cerr := f.Close()
	if err := errors.Join(werr, merr, serr, cerr); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", base, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// ReadFile returns the complete content at rel.
func (l *Local) ReadFile(rel string) ([]byte, error) {
	return os.ReadFile(l.abs(rel))
}

// MkdirAll ensures the directory rel exists.
func (l *Local) MkdirAll(rel string) error {
	return os.MkdirAll(l.abs(rel), 0o755)
}

// Remove deletes the single file rel.
func (l *Local) Remove(rel string) error {
	return os.Remove(l.abs(rel))
}

// RemoveAll deletes rel recursively.
func (l *Local) RemoveAll(rel string) error {
	return os.RemoveAll(l.abs(rel))
}

// List returns the entries of directory rel.
func (l *Local) List(rel string) ([]Entry, error) {
	entries, err := os.ReadDir(l.abs(rel))
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{Name: e.Name(), Dir: e.IsDir()}
	}
	return out, nil
}

// TryLock creates rel with O_CREATE|O_EXCL — the one primitive that
// arbitrates between processes sharing the directory.
func (l *Local) TryLock(rel string) error {
	f, err := os.OpenFile(l.abs(rel), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	return f.Close()
}

// Stat returns rel's size and modification time.
func (l *Local) Stat(rel string) (int64, time.Time, error) {
	info, err := os.Stat(l.abs(rel))
	if err != nil {
		return 0, time.Time{}, err
	}
	return info.Size(), info.ModTime(), nil
}
