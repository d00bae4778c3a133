// Package faultfs is the disk sibling of internal/faultnet: an injectable
// storage layer the WAL and checkpoint writer go through. Production code
// uses OS, a zero-cost passthrough to the real filesystem; the chaos and
// robustness tests wrap it in a Faulty that deterministically injects EIO,
// ENOSPC, short writes, fsync failures and latency from a seeded schedule,
// models a disk running out of space with a free-byte budget, and cuts the
// power at any operation. It is the only storage fault injector: every
// durable byte the engine writes or reads back goes through it.
//
// The surface is exactly the set of operations internal/wal performs:
// open, write (append), sync, truncate, rename (rotate + atomic
// checkpoint), remove, directory sync, and a free-space probe for the
// engine's disk-full watermarks.
package faultfs

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"
)

// Op names a fault-eligible file operation.
type Op string

const (
	OpOpen     Op = "open"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"

	// Remove and SyncDir only clean up or harden what the eligible ops did.
	// They are never counted, armed or rate-failed; they fail only once a
	// power cut has landed.
	OpRemove  Op = "remove"
	OpSyncDir Op = "syncdir"
)

// File is the subset of *os.File the WAL uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem the WAL and checkpoint writer operate on.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory so a just-renamed entry survives power
	// loss. Best effort: some platforms reject directory fsync.
	SyncDir(dir string) error
	// Free reports the free bytes available under dir; ok is false when
	// the filesystem cannot say (the engine then skips its watermarks).
	Free(dir string) (free int64, ok bool)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (osFS) Free(dir string) (int64, bool) { return osFree(dir) }

// InjectedError is a fault produced by a Faulty filesystem. It unwraps to
// the underlying errno-style cause (syscall.EIO, syscall.ENOSPC, ...), so
// callers classify it exactly as they would a real disk error.
type InjectedError struct {
	Op  Op
	Err error
}

func (e *InjectedError) Error() string { return fmt.Sprintf("faultfs: injected %v on %s", e.Err, e.Op) }
func (e *InjectedError) Unwrap() error { return e.Err }

// Faulty wraps an FS with deterministic, seeded fault injection. All
// configuration methods are safe for concurrent use with file operations.
//
// Fault-eligible operations (open, write, sync, truncate, rename) are
// counted; Arm schedules a one-shot failure at an exact count, ArmCrash a
// power cut at one, SetRate sets a steady per-op failure probability, and
// SetFree models a disk with a fixed budget of free bytes (writes beyond
// it are cut short with ENOSPC, exactly like a full filesystem).
type Faulty struct {
	inner FS

	mu      sync.Mutex
	rng     *rand.Rand
	rate    map[Op]float64 // steady failure probability per op
	errFor  map[Op]error   // errno injected for op (default syscall.EIO)
	latency time.Duration  // added to every eligible op

	// shortRate makes a failing write leave a random prefix of the data
	// behind before erroring — a torn write, not an all-or-nothing one.
	shortRate float64

	// One-shot schedule: fail the armAt-th eligible op from now (1 = the
	// very next) with armErr. armShort >= 0 additionally persists that
	// many bytes of a write before failing; with armErr == nil the write
	// is a *silent* short write (n < len(p), nil error).
	armAt    int64
	armErr   error
	armShort int

	// Power cut: from the crashAt-th eligible op on, every operation fails
	// (0 = no cut armed).
	crashAt int64

	// Free-byte budget; active when trackFree. Writes consume it.
	free      int64
	trackFree bool

	opCount int64
	counts  map[Op]int64
}

// NewFaulty wraps inner (nil means OS) with a seeded injector. With no
// rates, schedule, or budget configured it is a passthrough.
func NewFaulty(inner FS, seed int64) *Faulty {
	if inner == nil {
		inner = OS
	}
	return &Faulty{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		rate:     make(map[Op]float64),
		errFor:   make(map[Op]error),
		armShort: -1,
		counts:   make(map[Op]int64),
	}
}

// SetRate sets the steady failure probability of op (0 disables).
func (f *Faulty) SetRate(op Op, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate[op] = p
}

// SetErr sets the errno injected for op's steady-rate failures
// (default syscall.EIO).
func (f *Faulty) SetErr(op Op, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.errFor[op] = err
}

// SetShortRate makes the given fraction of *failing* writes leave a
// random prefix behind (a torn write) instead of failing cleanly.
func (f *Faulty) SetShortRate(p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortRate = p
}

// SetLatency adds a fixed delay to every eligible operation.
func (f *Faulty) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// Arm schedules a one-shot failure: the nth eligible operation from now
// (n = 1 means the very next) fails with err. It overrides rates for that
// operation.
func (f *Faulty) Arm(n int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armAt = f.opCount + n
	f.armErr = err
	f.armShort = -1
}

// ArmCrash cuts the power at the nth eligible operation from now (n = 1
// means the very next): that operation fails with EIO, and so does every
// later one — the uncounted Remove and SyncDir included — as if the
// process had died there. Bytes written before the cut stay, as they do
// when a process is killed. Calm restores power; Ops keeps counting.
func (f *Faulty) ArmCrash(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = f.opCount + n
}

// ArmShortWrite schedules a one-shot short write: the next write persists
// only the first n bytes and returns (n, err). With err == nil this is a
// silent short write — the pathological case where the kernel reports
// success for fewer bytes than requested.
func (f *Faulty) ArmShortWrite(n int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armAt = 0 // matched by op kind, not count
	f.armErr = err
	f.armShort = n
}

// SetFree switches on the free-byte budget: writes consume it, and a
// write that does not fit is cut short with ENOSPC, like a full disk.
// Free(dir) reports the remaining budget. A negative n disables tracking.
func (f *Faulty) SetFree(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trackFree = n >= 0
	f.free = n
}

// Calm clears every fault: rates, one-shot schedule, latency, torn-write
// mode, and a power cut (armed or landed). The free-byte budget is
// capacity, not a fault, and stays.
func (f *Faulty) Calm() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rate = make(map[Op]float64)
	f.latency = 0
	f.shortRate = 0
	f.armAt, f.armErr, f.armShort = 0, nil, -1
	f.crashAt = 0
}

// Count returns how many operations of kind op have been attempted.
func (f *Faulty) Count(op Op) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// Ops returns the total count of eligible operations attempted, the
// counter Arm schedules against.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opCount
}

// decide records one eligible op and returns the latency to apply and the
// injected error, if any. For writes, short >= 0 limits how many bytes to
// persist before returning err (err may be nil: silent short write).
func (f *Faulty) decide(op Op, n int) (delay time.Duration, short int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opCount++
	f.counts[op]++
	if err := f.deadLocked(op); err != nil {
		return 0, -1, err
	}
	delay, short = f.latency, -1

	// One-shot schedule first: exact-count arm, or armed short write.
	if f.armShort >= 0 && op == OpWrite {
		short, err = f.armShort, f.armErr
		f.armAt, f.armErr, f.armShort = 0, nil, -1
		return delay, short, err
	}
	if f.armErr != nil && f.armAt == f.opCount {
		err = &InjectedError{Op: op, Err: f.armErr}
		f.armAt, f.armErr = 0, nil
		return delay, -1, err
	}

	// Steady seeded rate.
	if p := f.rate[op]; p > 0 && f.rng.Float64() < p {
		errno := f.errFor[op]
		if errno == nil {
			errno = syscall.EIO
		}
		if op == OpWrite && f.shortRate > 0 && f.rng.Float64() < f.shortRate {
			short = f.rng.Intn(n + 1) // torn: a prefix reaches the file
		}
		return delay, short, &InjectedError{Op: op, Err: errno}
	}

	// Free-byte budget: a write that does not fit is cut at the budget
	// with ENOSPC, exactly like a full filesystem.
	if op == OpWrite && f.trackFree && int64(n) > f.free {
		return delay, int(f.free), &InjectedError{Op: op, Err: syscall.ENOSPC}
	}
	return delay, -1, nil
}

// deadLocked returns the power-cut error once a cut has landed.
func (f *Faulty) deadLocked(op Op) error {
	if f.crashAt > 0 && f.opCount >= f.crashAt {
		return &InjectedError{Op: op, Err: syscall.EIO}
	}
	return nil
}

// dead is deadLocked for the operations that are not counted.
func (f *Faulty) dead(op Op) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.deadLocked(op)
}

// consume charges n written bytes against the free-byte budget.
func (f *Faulty) consume(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.trackFree {
		f.free -= int64(n)
		if f.free < 0 {
			f.free = 0
		}
	}
}

func (f *Faulty) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	delay, _, err := f.decide(OpOpen, 0)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: inner, fs: f}, nil
}

func (f *Faulty) Rename(oldpath, newpath string) error {
	delay, _, err := f.decide(OpRename, 0)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove is not counted: it only runs in error-cleanup paths, and keeping
// it out of the schedule keeps Arm's op indices stable. It fails only after
// a power cut, so a cut leaves behind the temp files a real crash would.
func (f *Faulty) Remove(name string) error {
	if err := f.dead(OpRemove); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// SyncDir is not counted (it is best-effort everywhere); like Remove it
// fails only after a power cut.
func (f *Faulty) SyncDir(dir string) error {
	if err := f.dead(OpSyncDir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// Free reports the remaining budget when one is set, else the inner
// filesystem's answer.
func (f *Faulty) Free(dir string) (int64, bool) {
	f.mu.Lock()
	tracking, free := f.trackFree, f.free
	f.mu.Unlock()
	if tracking {
		return free, true
	}
	return f.inner.Free(dir)
}

// faultyFile applies the schedule to per-fd operations.
type faultyFile struct {
	File
	fs *Faulty
}

func (w *faultyFile) Write(p []byte) (int, error) {
	delay, short, err := w.fs.decide(OpWrite, len(p))
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil || short >= 0 {
		n := 0
		if short > 0 {
			if short > len(p) {
				short = len(p)
			}
			n, _ = w.File.Write(p[:short])
			w.fs.consume(n)
		}
		return n, err
	}
	n, werr := w.File.Write(p)
	w.fs.consume(n)
	return n, werr
}

func (w *faultyFile) Sync() error {
	delay, _, err := w.fs.decide(OpSync, 0)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return err
	}
	return w.File.Sync()
}

func (w *faultyFile) Truncate(size int64) error {
	delay, _, err := w.fs.decide(OpTruncate, 0)
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return err
	}
	return w.File.Truncate(size)
}
