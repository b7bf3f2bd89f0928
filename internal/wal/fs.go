package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// FS is the byte-oriented durable directory under a WAL: segment files,
// checkpoint snapshots, and the directory metadata that makes creates,
// renames and removes themselves durable. It is deliberately tiny so tests
// can interpose fault injection (FaultFS) and simulated latency (SlowFS) in
// the style of pagestore's File wrappers.
//
// Implementations must be safe for concurrent use by the committer
// goroutine and the checkpointer.
type FS interface {
	// Create creates (truncating) a file open for appending.
	Create(name string) (File, error)
	// Open opens a file for sequential reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the file names in the directory, sorted.
	List() ([]string, error)
	// Size returns the byte size of a file.
	Size(name string) (int64, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Truncate shortens a file to size bytes (tail repair after a torn
	// write).
	Truncate(name string, size int64) error
	// SyncDir makes preceding creates, renames and removes durable.
	SyncDir() error
}

// File is one append-only file under an FS.
type File interface {
	io.Writer
	// Sync makes every preceding Write durable.
	Sync() error
	Close() error
}

// DirFS is the operating-system FS rooted at one directory.
type DirFS struct {
	dir string
}

// NewDirFS returns an FS over dir, creating the directory if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirFS{dir: dir}, nil
}

// Dir returns the root directory.
func (fs *DirFS) Dir() string { return fs.dir }

// Create implements FS.
func (fs *DirFS) Create(name string) (File, error) {
	return os.OpenFile(filepath.Join(fs.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Open implements FS.
func (fs *DirFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(fs.dir, name))
}

// List implements FS.
func (fs *DirFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (fs *DirFS) Size(name string) (int64, error) {
	st, err := os.Stat(filepath.Join(fs.dir, name))
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Remove implements FS.
func (fs *DirFS) Remove(name string) error {
	return os.Remove(filepath.Join(fs.dir, name))
}

// Rename implements FS.
func (fs *DirFS) Rename(oldname, newname string) error {
	return os.Rename(filepath.Join(fs.dir, oldname), filepath.Join(fs.dir, newname))
}

// Truncate implements FS.
func (fs *DirFS) Truncate(name string, size int64) error {
	return os.Truncate(filepath.Join(fs.dir, name), size)
}

// SyncDir implements FS.
func (fs *DirFS) SyncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SlowFS wraps an FS so every File.Sync takes at least the given delay,
// modeling a disk whose fsync dominates the write path. Group-commit benchmarks use it: with a slow
// fsync, coalescing many appends per sync is the whole game.
type SlowFS struct {
	FS
	SyncDelay time.Duration
}

// Create implements FS.
func (fs *SlowFS) Create(name string) (File, error) {
	f, err := fs.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &slowFile{File: f, delay: fs.SyncDelay}, nil
}

type slowFile struct {
	File
	delay time.Duration
}

func (f *slowFile) Sync() error {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.File.Sync()
}

// ErrCrashed is returned by every FaultFS operation after the injected
// crash point has been reached.
var ErrCrashed = errors.New("wal: injected crash")

// Op identifies one class of FaultFS operation for kill-point coverage
// reporting.
type Op string

// The operation classes a FaultFS distinguishes.
const (
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpCreate   Op = "create"
	OpRemove   Op = "remove"
	OpRename   Op = "rename"
	OpTruncate Op = "truncate"
	OpSyncDir  Op = "syncdir"
)

// FaultFS wraps an FS with a crash budget measured in units: every written
// byte costs one unit and every metadata operation (sync, create, remove,
// rename, truncate, directory sync) costs one unit. When the budget runs
// out the FS "crashes": the operation that crossed the line fails — a Write
// first persists only the bytes the budget still covered, producing a torn
// frame — and every subsequent operation returns ErrCrashed. Reads are
// unaffected, mirroring a machine that lost power and rebooted.
//
// A FaultFS with a negative budget never crashes but still counts units and
// records the unit offset of each operation class, which the kill-point
// harness uses to aim crash budgets at every class (mid-append, mid-fsync,
// mid-checkpoint-rename, mid-truncate, ...).
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	budget  int64 // remaining units; <0 = unlimited (counting mode)
	used    int64
	crashed bool
	trace   []OpPoint
}

// OpPoint records that an operation of class Op began once used units had
// been consumed.
type OpPoint struct {
	Op   Op
	Used int64
}

// NewFaultFS wraps inner with the given crash budget; budget < 0 counts
// without ever crashing.
func NewFaultFS(inner FS, budget int64) *FaultFS {
	return &FaultFS{inner: inner, budget: budget}
}

// Used returns the units consumed so far.
func (fs *FaultFS) Used() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.used
}

// Crashed reports whether the crash point has been reached.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Trace returns the recorded operation points (counting mode).
func (fs *FaultFS) Trace() []OpPoint {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]OpPoint(nil), fs.trace...)
}

// spend consumes up to want units for an operation of class op. It returns
// how many units the operation may still use (for writes: how many bytes to
// persist) and whether the operation survives the budget.
func (fs *FaultFS) spend(op Op, want int64) (allowed int64, ok bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return 0, false
	}
	fs.trace = append(fs.trace, OpPoint{Op: op, Used: fs.used})
	if fs.budget < 0 {
		fs.used += want
		return want, true
	}
	remaining := fs.budget - fs.used
	if remaining >= want {
		fs.used += want
		return want, true
	}
	// The budget runs out inside this operation: crash, persisting only
	// what it still covered.
	fs.crashed = true
	if remaining < 0 {
		remaining = 0
	}
	fs.used += remaining
	return remaining, false
}

// Create implements FS.
func (fs *FaultFS) Create(name string) (File, error) {
	if _, ok := fs.spend(OpCreate, 1); !ok {
		return nil, ErrCrashed
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, inner: f}, nil
}

// Open implements FS (reads never crash).
func (fs *FaultFS) Open(name string) (io.ReadCloser, error) { return fs.inner.Open(name) }

// List implements FS.
func (fs *FaultFS) List() ([]string, error) { return fs.inner.List() }

// Size implements FS.
func (fs *FaultFS) Size(name string) (int64, error) { return fs.inner.Size(name) }

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error {
	if _, ok := fs.spend(OpRemove, 1); !ok {
		return ErrCrashed
	}
	return fs.inner.Remove(name)
}

// Rename implements FS.
func (fs *FaultFS) Rename(oldname, newname string) error {
	if _, ok := fs.spend(OpRename, 1); !ok {
		return ErrCrashed
	}
	return fs.inner.Rename(oldname, newname)
}

// Truncate implements FS.
func (fs *FaultFS) Truncate(name string, size int64) error {
	if _, ok := fs.spend(OpTruncate, 1); !ok {
		return ErrCrashed
	}
	return fs.inner.Truncate(name, size)
}

// SyncDir implements FS.
func (fs *FaultFS) SyncDir() error {
	if _, ok := fs.spend(OpSyncDir, 1); !ok {
		return ErrCrashed
	}
	return fs.inner.SyncDir()
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

// Write persists a torn prefix when the crash budget runs out mid-write.
func (f *faultFile) Write(p []byte) (int, error) {
	allowed, ok := f.fs.spend(OpWrite, int64(len(p)))
	if !ok {
		if allowed > 0 {
			f.inner.Write(p[:allowed]) // torn write: best effort, then dead
		}
		return 0, ErrCrashed
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if _, ok := f.fs.spend(OpSync, 1); !ok {
		return ErrCrashed
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }

// segmentName formats the canonical segment file name for a first LSN.
func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016d.seg", firstLSN)
}

// parseSegmentName extracts the first LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	var lsn uint64
	if n, err := fmt.Sscanf(name, "wal-%016d.seg", &lsn); n != 1 || err != nil {
		return 0, false
	}
	if name != segmentName(lsn) {
		return 0, false
	}
	return lsn, true
}
