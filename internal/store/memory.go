package store

import (
	"bytes"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Memory is the Backend of a kanond without a data directory: every
// file lives in process memory. Within the process it keeps Local's
// contract (atomic replacement, O_EXCL-style locks, missing paths
// reported as os.ErrNotExist); nothing survives the process, and no
// other process can share it.
type Memory struct {
	mu sync.Mutex
	// dirs maps each directory ("" is the root) to its children, each
	// flagged true when it is itself a directory.
	dirs  map[string]map[string]bool
	files map[string]memFile
}

type memFile struct {
	data  []byte
	mtime time.Time
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{dirs: map[string]map[string]bool{"": {}}, files: map[string]memFile{}}
}

// memPath normalizes a backend-relative path; the root is "".
func memPath(rel string) string {
	if p := path.Clean(rel); p != "." {
		return p
	}
	return ""
}

// splitPath returns a normalized path's parent directory and base name.
func splitPath(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return "", p
	}
	return p[:i], p[i+1:]
}

func pathErr(op, p string, err error) error { return &fs.PathError{Op: op, Path: p, Err: err} }

// create adds the file p to its parent's listing, failing like
// open(2) when the parent is missing or p names a directory.
func (m *Memory) create(op, p string) error {
	dir, name := splitPath(p)
	kids, ok := m.dirs[dir]
	if !ok {
		return pathErr(op, p, fs.ErrNotExist)
	}
	if kids[name] {
		return pathErr(op, p, syscall.EISDIR)
	}
	kids[name] = false
	return nil
}

// WriteAtomic replaces the file at rel with a copy of data.
func (m *Memory) WriteAtomic(rel string, data []byte) error {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.create("write", p); err != nil {
		return err
	}
	m.files[p] = memFile{data: bytes.Clone(data), mtime: time.Now()}
	return nil
}

// ReadFile returns a copy of the file at rel.
func (m *Memory) ReadFile(rel string) ([]byte, error) {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return nil, pathErr("open", p, fs.ErrNotExist)
	}
	return bytes.Clone(f.data), nil
}

// MkdirAll ensures the directory rel and its parents exist.
func (m *Memory) MkdirAll(rel string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mkdir(memPath(rel))
}

func (m *Memory) mkdir(p string) error {
	if _, ok := m.dirs[p]; ok {
		return nil
	}
	if _, ok := m.files[p]; ok {
		return pathErr("mkdir", p, syscall.ENOTDIR)
	}
	if p != "" { // the root has no parent: RemoveAll("") took it, this restores it
		dir, name := splitPath(p)
		if err := m.mkdir(dir); err != nil {
			return err
		}
		m.dirs[dir][name] = true
	}
	m.dirs[p] = map[string]bool{}
	return nil
}

// Remove deletes the file rel.
func (m *Memory) Remove(rel string) error {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; !ok {
		return pathErr("remove", p, fs.ErrNotExist)
	}
	delete(m.files, p)
	dir, name := splitPath(p)
	delete(m.dirs[dir], name)
	return nil
}

// RemoveAll deletes rel and everything under it; lock files included,
// which is what lets ReapTerminal remove a job under its own lock.
func (m *Memory) RemoveAll(rel string) error {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeTree(p)
	dir, name := splitPath(p)
	delete(m.dirs[dir], name)
	return nil
}

func (m *Memory) removeTree(p string) {
	delete(m.files, p)
	for name, isDir := range m.dirs[p] {
		child := path.Join(p, name)
		if isDir {
			m.removeTree(child)
		} else {
			delete(m.files, child)
		}
	}
	delete(m.dirs, p)
}

// List returns the entries of directory rel, sorted by name as
// os.ReadDir sorts them.
func (m *Memory) List(rel string) ([]Entry, error) {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	kids, ok := m.dirs[p]
	if !ok {
		return nil, pathErr("open", p, fs.ErrNotExist)
	}
	out := make([]Entry, 0, len(kids))
	for name, isDir := range kids {
		out = append(out, Entry{Name: name, Dir: isDir})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// TryLock creates the empty file rel unless it already exists.
func (m *Memory) TryLock(rel string) error {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; ok {
		return pathErr("open", p, fs.ErrExist)
	}
	if err := m.create("open", p); err != nil {
		return err
	}
	m.files[p] = memFile{mtime: time.Now()}
	return nil
}

// Stat returns the size and modification time of the file rel.
func (m *Memory) Stat(rel string) (int64, time.Time, error) {
	p := memPath(rel)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[p]
	if !ok {
		return 0, time.Time{}, pathErr("stat", p, fs.ErrNotExist)
	}
	return int64(len(f.data)), f.mtime, nil
}

// Root is empty: a Memory backend has no directory on disk.
func (m *Memory) Root() string { return "" }
