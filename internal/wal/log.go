package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grfusion/internal/faultfs"
)

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy uint8

const (
	// FsyncAlways syncs every append before it returns — no acknowledged
	// write is ever lost.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs from a background ticker; a crash loses at most
	// the last interval of acknowledged writes, but the log on disk is
	// always a valid prefix of the acknowledged history.
	FsyncInterval
	// FsyncOff leaves syncing to the OS page cache. Cheapest, loses the
	// most on power failure, still torn-tail safe on process crash.
	FsyncOff
)

// String renders the policy as its SET/flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", uint8(p))
	}
}

// ParseFsyncPolicy parses "always", "interval" or "off" (any case).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch {
	case equalFold(s, "always"):
		return FsyncAlways, nil
	case equalFold(s, "interval"):
		return FsyncInterval, nil
	case equalFold(s, "off"):
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("unknown fsync policy %q (want always, interval or off)", s)
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// ErrClosed reports an append to a closed log (e.g. a statement issued
// after shutdown).
var ErrClosed = errors.New("wal: log closed")

// Options configure a Log.
type Options struct {
	// Fsync is the sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// Interval is the FsyncInterval ticker period (default 50ms).
	Interval time.Duration
	// OnSync, when set, is called after every successful fsync (metrics).
	OnSync func()
	// OnAppend, when set, is called after every successful append with
	// the frame size in bytes (metrics).
	OnAppend func(bytes int)
	// FS is the storage layer the log operates on; nil means the real
	// filesystem (faultfs.OS). Tests pass a faultfs.Faulty to inject
	// EIO/ENOSPC/short writes/fsync failures/power cuts beneath the log.
	FS faultfs.FS
}

// Log is the append side of the WAL. All methods are safe for concurrent
// use; in practice appends are serialized by the engine's write lock and
// only the interval-sync goroutine runs concurrently.
type Log struct {
	mu      sync.Mutex
	f       faultfs.File
	fs      faultfs.FS
	path    string
	opts    Options
	nextLSN uint64
	size    int64
	dirty   bool // bytes appended since the last sync
	closed  bool
	// broken is set when a failed append could not be rolled back by
	// truncation; the file may end mid-frame, so further appends would
	// write frames recovery can never reach.
	broken error

	stopInterval chan struct{}
	doneInterval chan struct{}
}

// DebugDropTailRecord, when true, makes Open silently discard the final
// valid record of the scanned log — an injected recovery bug (one durably
// logged statement lost) that the oracle harness's teeth test uses to
// prove its crash-recovery differential detects lost updates.
var DebugDropTailRecord bool

// Open opens (or creates) the log at path, scans the existing contents,
// truncates any torn tail, and positions the log for appending. The
// returned ScanResult holds the valid record prefix for the caller to
// replay. A file that is not a WAL at all fails with ErrCorruptWAL.
func Open(path string, opts Options) (*Log, *ScanResult, error) {
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	res, err := Scan(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if DebugDropTailRecord && len(res.Records) > 0 {
		res.Records = res.Records[:len(res.Records)-1]
	}
	l := &Log{f: f, fs: opts.FS, path: path, opts: opts, nextLSN: 1, size: res.ValidBytes}
	if n := len(res.Records); n > 0 {
		l.nextLSN = res.Records[n-1].LSN + 1
	}
	if res.ValidBytes == 0 {
		// Empty (or header-less zero-length) file: write a fresh header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.WriteAt(appendHeader(nil), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.size = HeaderSize
	} else if fi, err := f.Stat(); err == nil && fi.Size() > res.ValidBytes {
		// Torn tail from a crash mid-append: drop it so new frames land on
		// a valid boundary.
		if err := f.Truncate(res.ValidBytes); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(l.size, 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	l.startInterval()
	return l, res, nil
}

// startInterval launches the background sync goroutine when the policy
// asks for it. Callers hold no lock (Open) or the lock (SetPolicy).
func (l *Log) startInterval() {
	if l.opts.Fsync != FsyncInterval || l.stopInterval != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	l.stopInterval, l.doneInterval = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(l.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				l.Sync()
			}
		}
	}()
}

func (l *Log) stopIntervalLocked() {
	if l.stopInterval != nil {
		close(l.stopInterval)
		l.stopInterval = nil
		l.mu.Unlock()
		<-l.doneInterval
		l.mu.Lock()
		l.doneInterval = nil
	}
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// LastLSN returns the LSN of the most recent append (0 if none yet).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// EnsureLSN advances the sequence so the next append gets at least
// lsn+1. Recovery calls this with the checkpoint LSN, which may exceed
// everything in a freshly rotated log.
func (l *Log) EnsureLSN(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if lsn+1 > l.nextLSN {
		l.nextLSN = lsn + 1
	}
}

// Size returns the current log size in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Policy returns the current fsync policy.
func (l *Log) Policy() FsyncPolicy {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.opts.Fsync
}

// SetPolicy changes the fsync policy at runtime (SET WAL_FSYNC).
// Tightening to always syncs immediately so the guarantee holds from this
// statement on.
func (l *Log) SetPolicy(p FsyncPolicy) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.Fsync == p {
		return nil
	}
	if p != FsyncInterval {
		l.stopIntervalLocked()
	}
	l.opts.Fsync = p
	if l.closed {
		return nil
	}
	if p == FsyncInterval {
		l.startInterval()
	}
	if p == FsyncAlways && l.dirty {
		return l.syncLocked()
	}
	return nil
}

// Append assigns the next LSN to rec, writes its frame, and syncs per
// policy. On any failure the frame is rolled back (truncated away) so the
// on-disk log only ever contains acknowledged records; the caller must
// then undo the statement. Returns the assigned LSN.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log disabled after unrecoverable append failure: %w", l.broken)
	}
	rec.LSN = l.nextLSN
	frame := AppendFrame(nil, rec)
	// A short write — n < len(frame) — can come back with err == nil from
	// a pathological filesystem. Treating it as success would let size
	// accounting and OnAppend drift from what is actually on disk, so it
	// is an error like any other partial write, and the truncate below
	// removes whatever prefix landed.
	if n, err := l.f.Write(frame); err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		l.rollbackLocked(err)
		return 0, fmt.Errorf("wal append: %w", err)
	}
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncAfterAppendLocked(); err != nil {
			// The frame hit the page cache but not stable storage; since
			// the statement will be undone, the record must not survive
			// to replay.
			l.rollbackLocked(err)
			return 0, fmt.Errorf("wal sync: %w", err)
		}
	} else {
		l.dirty = true
	}
	l.size += int64(len(frame))
	l.nextLSN++
	if l.opts.OnAppend != nil {
		l.opts.OnAppend(len(frame))
	}
	return rec.LSN, nil
}

// Broken returns the unrecoverable-append error that disabled the log, or
// nil while the log is usable. A broken log refuses appends until Rotate
// replaces the file; the engine uses this to distinguish a transient
// injected fault (statement aborted, log fine) from a log that can no
// longer accept any write (degrade to read-only and heal).
func (l *Log) Broken() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// rollbackLocked undoes a failed append by truncating back to the last
// acknowledged frame; if even that fails the log is marked broken and
// refuses further appends.
func (l *Log) rollbackLocked(cause error) {
	if err := l.f.Truncate(l.size); err != nil {
		l.broken = fmt.Errorf("%v (truncate after failed append: %v)", cause, err)
		return
	}
	if _, err := l.f.Seek(l.size, 0); err != nil {
		l.broken = fmt.Errorf("%v (reposition after failed append: %v)", cause, err)
	}
}

// syncAfterAppendLocked syncs for the FsyncAlways path.
func (l *Log) syncAfterAppendLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	if l.opts.OnSync != nil {
		l.opts.OnSync()
	}
	return nil
}

// Sync flushes appended frames to stable storage if any are pending.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.closed || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	if l.opts.OnSync != nil {
		l.opts.OnSync()
	}
	return nil
}

// Rotate atomically replaces the log with a fresh empty one. Call only
// after a checkpoint covering every logged record is durably in place:
// records carry LSNs and recovery skips those at or below the checkpoint
// LSN, so a crash before the rotate merely replays covered records as
// no-ops, and a crash after it finds the empty log. The LSN sequence
// continues; it never restarts.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmp := l.path + ".tmp"
	nf, err := l.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	cleanup := func(err error) error {
		nf.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal rotate: %w", err)
	}
	if n, err := nf.Write(appendHeader(nil)); err != nil || n != HeaderSize {
		if err == nil {
			err = io.ErrShortWrite
		}
		return cleanup(err)
	}
	if err := nf.Sync(); err != nil {
		return cleanup(err)
	}
	if err := l.fs.Rename(tmp, l.path); err != nil {
		return cleanup(err)
	}
	l.fs.SyncDir(filepath.Dir(l.path))
	l.f.Close()
	l.f = nf
	l.size = HeaderSize
	l.dirty = false
	l.broken = nil
	if _, err := nf.Seek(HeaderSize, 0); err != nil {
		return fmt.Errorf("wal rotate: %w", err)
	}
	return nil
}

// Close syncs pending frames and closes the file. Further appends fail
// with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.stopIntervalLocked()
	var err error
	if l.broken == nil {
		err = l.syncLocked()
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon closes the file descriptor WITHOUT syncing — the crash-test
// hook. Whatever the OS already has is what recovery will see.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.stopIntervalLocked()
	l.closed = true
	l.f.Close()
}
