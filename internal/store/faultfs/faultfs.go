// Package faultfs is a fault layer over a store.FS. It passes every
// operation through to the filesystem it wraps and, on a seeded
// schedule, fails one instead: EIO on fsync, ENOSPC part-way through a
// blob, a short write, a failed rename, a failed directory fsync — or a
// crash, which drops every write not yet made durable, as a power loss
// would, and freezes the filesystem.
//
// Every probabilistic draw is a keyed hash of (seed, operation index),
// never a stream RNG, so a failing seed replays exactly. The shape is a
// network emulator's link over a NIC: the real implementation behind
// the same interface, not a mock.
//
// Durability follows POSIX: a file's bytes survive a crash once the
// file is fsynced, and a creation, rename or removal once its directory
// is fsynced. Directories themselves are taken as durable when created.
// Only operations through the layer are tracked, so files another
// writer keeps in the same directory are left as they are.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"beholder/internal/store"
)

// Fault is one injectable failure.
type Fault uint8

const (
	// SyncEIO fails File.Sync with EIO; nothing is made durable.
	SyncEIO Fault = iota + 1
	// WriteENOSPC makes File.Write on a created file (a blob, not the
	// appended journal) store half its bytes and fail with ENOSPC.
	WriteENOSPC
	// ShortWrite makes any File.Write store half its bytes and fail
	// with io.ErrShortWrite.
	ShortWrite
	// RenameFail fails Rename with EIO, leaving both names as they were.
	RenameFail
	// DirSyncFail fails SyncDir with EIO; no entry is made durable.
	DirSyncFail
	// Crash drops every write not yet durable and fails the operation
	// and every later one with ErrCrashed.
	Crash
)

// String names the fault for diagnostics.
func (k Fault) String() string {
	switch k {
	case SyncEIO:
		return "fsync-eio"
	case WriteENOSPC:
		return "write-enospc"
	case ShortWrite:
		return "short-write"
	case RenameFail:
		return "rename-fail"
	case DirSyncFail:
		return "dirsync-fail"
	case Crash:
		return "crash"
	}
	return "none"
}

// Rule injects one fault. With At set, it fires once, at the first
// operation it applies to whose index (counted from 1 across the
// filesystem and its open files) is at least At; otherwise at every
// operation it applies to whose draw falls below Prob.
type Rule struct {
	Fault Fault
	At    uint64
	Prob  float64
}

// ErrCrashed is the error of every operation from the crash on.
var ErrCrashed = errors.New("faultfs: crashed")

// op classifies an operation for rule matching.
type op uint8

const (
	opOther op = iota
	opSync
	opWrite
	opBlobWrite
	opRename
	opSyncDir
)

func (k Fault) applies(o op) bool {
	switch k {
	case SyncEIO:
		return o == opSync
	case WriteENOSPC:
		return o == opBlobWrite
	case ShortWrite:
		return o == opWrite || o == opBlobWrite
	case RenameFail:
		return o == opRename
	case DirSyncFail:
		return o == opSyncDir
	}
	return k == Crash
}

// inode mirrors one file's bytes: all written, and the prefix an fsync
// made durable.
type inode struct{ data, synced []byte }

// FS is the fault layer. All methods are safe for concurrent use.
type FS struct {
	base store.FS
	seed uint64

	mu      sync.Mutex
	rules   []Rule
	ops     uint64
	fired   []uint64
	down    bool
	crashed chan struct{}
	// known holds every path an operation named; live maps those
	// present now to their file, durable those present after a crash.
	known   map[string]bool
	live    map[string]*inode
	durable map[string]*inode
}

// New wraps base. Every file already there is durable.
func New(base store.FS, seed uint64, rules ...Rule) *FS {
	return &FS{
		base: base, seed: seed, rules: rules,
		crashed: make(chan struct{}),
		known:   make(map[string]bool),
		live:    make(map[string]*inode),
		durable: make(map[string]*inode),
	}
}

// Ops returns the number of operations so far.
func (f *FS) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Arm adds rules.
func (f *FS) Arm(rules ...Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, rules...)
}

// Disarm drops every rule.
func (f *FS) Disarm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Fired returns the indices of the operations a fault was injected at.
func (f *FS) Fired() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.fired...)
}

// Crashed is closed when the filesystem crashes.
func (f *FS) Crashed() <-chan struct{} { return f.crashed }

// step counts one operation of class o on name and decides its fault;
// a crash is carried out here. Callers hold f.mu.
func (f *FS) step(o op, name string) (Fault, error) {
	if f.down {
		return 0, ErrCrashed
	}
	f.ops++
	for i := 0; i < len(f.rules); i++ {
		r := f.rules[i]
		if !r.Fault.applies(o) {
			continue
		}
		if r.At > 0 {
			if f.ops < r.At {
				continue
			}
			f.rules = append(f.rules[:i:i], f.rules[i+1:]...)
		} else if draw(f.seed, f.ops, r.Fault) >= r.Prob {
			continue
		}
		f.fired = append(f.fired, f.ops)
		if r.Fault == Crash {
			f.crash()
			return Crash, ErrCrashed
		}
		return r.Fault, &fs.PathError{Op: r.Fault.String(), Path: name, Err: errno(r.Fault)}
	}
	return 0, nil
}

func errno(k Fault) error {
	switch k {
	case WriteENOSPC:
		return syscall.ENOSPC
	case ShortWrite:
		return io.ErrShortWrite
	}
	return syscall.EIO
}

// crash lays the durable image onto the base filesystem and freezes.
// Callers hold f.mu.
func (f *FS) crash() {
	f.down = true
	close(f.crashed)
	paths := make([]string, 0, len(f.known))
	for p := range f.known {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		f.base.Remove(p)
		if n := f.durable[p]; n != nil {
			if w, err := f.base.Create(p); err == nil {
				w.Write(n.synced)
				w.Close()
			}
		}
	}
}

// track records name's current state on first mention, as durable.
// Callers hold f.mu.
func (f *FS) track(name string) {
	if f.known[name] {
		return
	}
	f.known[name] = true
	if b, err := f.base.ReadFile(name); err == nil {
		n := &inode{data: b, synced: b}
		f.live[name], f.durable[name] = n, n
	}
}

func (f *FS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, dir); err != nil {
		return err
	}
	return f.base.MkdirAll(dir)
}

func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, dir); err != nil {
		return nil, err
	}
	return f.base.ReadDir(dir)
}

func (f *FS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, name); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f *FS) Stat(name string) (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, name); err != nil {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *FS) Create(name string) (store.File, error) {
	return f.open(name, true)
}

func (f *FS) Append(name string) (store.File, error) {
	return f.open(name, false)
}

func (f *FS) open(name string, create bool) (store.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, name); err != nil {
		return nil, err
	}
	f.track(name)
	open := f.base.Append
	if create {
		open = f.base.Create
	}
	w, err := open(name)
	if err != nil {
		return nil, err
	}
	n := f.live[name]
	if create || n == nil {
		n = &inode{}
		f.live[name] = n
	}
	return &file{fs: f, name: name, blob: create, n: n, w: w}, nil
}

func (f *FS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opRename, oldname); err != nil {
		return err
	}
	f.track(oldname)
	f.track(newname)
	if err := f.base.Rename(oldname, newname); err != nil {
		return err
	}
	f.live[newname] = f.live[oldname]
	delete(f.live, oldname)
	return nil
}

func (f *FS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, name); err != nil {
		return err
	}
	f.track(name)
	if err := f.base.Remove(name); err != nil {
		return err
	}
	delete(f.live, name)
	return nil
}

func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opSyncDir, dir); err != nil {
		return err
	}
	if err := f.base.SyncDir(dir); err != nil {
		return err
	}
	for p := range f.known {
		if filepath.Dir(p) != dir {
			continue
		}
		if n := f.live[p]; n != nil {
			f.durable[p] = n
		} else {
			delete(f.durable, p)
		}
	}
	return nil
}

// file is an open file through the layer.
type file struct {
	fs   *FS
	name string
	blob bool // opened by Create
	n    *inode
	w    store.File
}

func (w *file) Write(p []byte) (int, error) {
	f := w.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	o := opWrite
	if w.blob {
		o = opBlobWrite
	}
	fault, err := f.step(o, w.name)
	if fault == Crash || (err != nil && fault == 0) {
		return 0, err
	}
	if fault != 0 {
		p = p[:len(p)/2]
	}
	n, werr := w.w.Write(p)
	w.n.data = append(w.n.data, p[:n]...)
	if werr != nil {
		return n, werr
	}
	return n, err
}

func (w *file) Truncate(size int64) error {
	f := w.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opOther, w.name); err != nil {
		return err
	}
	if err := w.w.Truncate(size); err != nil {
		return err
	}
	if size <= int64(len(w.n.data)) {
		// Capped, so later writes cannot reach the synced bytes.
		w.n.data = w.n.data[:size:size]
	} else {
		w.n.data = append(w.n.data, make([]byte, size-int64(len(w.n.data)))...)
	}
	return nil
}

func (w *file) Sync() error {
	f := w.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := f.step(opSync, w.name); err != nil {
		return err
	}
	if err := w.w.Sync(); err != nil {
		return err
	}
	w.n.synced = w.n.data
	return nil
}

// Close releases the underlying file even after a crash.
func (w *file) Close() error {
	f := w.fs
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.step(opOther, w.name)
	if cerr := w.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// draw maps (seed, operation index, fault) to [0, 1).
func draw(seed, op uint64, k Fault) float64 {
	const gamma = 0x9e3779b97f4a7c15
	x := mix64(seed ^ uint64(k)*gamma)
	x = mix64(x ^ op*gamma)
	return float64(x>>11) / (1 << 53)
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
