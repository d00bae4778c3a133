package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"grfusion/internal/faultfs"
	"grfusion/internal/sql"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// Durability configures the write-ahead log and checkpointing. The zero
// value disables durability (the engine is purely in-memory, as the
// paper's prototype was). Durability only takes effect through Open —
// New ignores it, because an engine that logs must first recover what the
// log already contains.
type Durability struct {
	// Dir enables durability: the engine keeps its WAL (wal.log) and its
	// checkpoint (checkpoint.gob) in this directory, logs every mutating
	// statement before applying it, and Open recovers state from these
	// files on startup. Empty disables durability.
	Dir string
	// Fsync is the WAL sync policy: FsyncAlways (default — no
	// acknowledged write is ever lost), FsyncInterval (background sync,
	// bounded loss window), or FsyncOff (page cache only). Changeable at
	// runtime with SET WAL_FSYNC = ALWAYS|INTERVAL|OFF.
	Fsync wal.FsyncPolicy
	// FsyncInterval is the FsyncInterval ticker period (default 50ms).
	FsyncInterval time.Duration
	// CheckpointEvery checkpoints after this many logged statements:
	// snapshot to a temp file, fsync, atomic rename, then WAL truncation.
	// 0 means the default (4096); negative disables automatic checkpoints
	// (manual Checkpoint and the shutdown checkpoint still run).
	// Changeable at runtime with SET CHECKPOINT_EVERY = <n>.
	CheckpointEvery int

	// SoftFreeBytes / HardFreeBytes are disk-space watermarks checked on
	// the WAL append path. Free space under SoftFreeBytes forces a
	// checkpoint + WAL rotation to give log space back to the disk; under
	// HardFreeBytes the engine degrades to read-only instead of consuming
	// the last bytes the rest of the host needs. Zero disables a
	// watermark. (Off Linux the real filesystem cannot report free space
	// and both are inert unless FS overrides Free.)
	SoftFreeBytes int64
	HardFreeBytes int64

	// HealBase / HealMax bound the self-healing probe's capped
	// exponential backoff once the engine degrades (defaults 25ms / 2s).
	HealBase time.Duration
	HealMax  time.Duration

	// FS is the storage layer the WAL and checkpoints write through;
	// nil means the real filesystem. The disk-fault chaos tests pass a
	// faultfs.Faulty here.
	FS faultfs.FS

	// FaultHook injects WAL file-operation failures ("write", "sync",
	// "rotate"); CrashHook simulates crashes inside the checkpoint's
	// atomic-rename protocol. Test hooks; leave nil in production.
	FaultHook func(op string) error
	CrashHook wal.CrashFunc
}

// WAL/checkpoint file names inside Durability.Dir.
const (
	walFile        = "wal.log"
	checkpointFile = "checkpoint.gob"
)

// defaultCheckpointEvery is the automatic checkpoint threshold when
// Durability.CheckpointEvery is zero.
const defaultCheckpointEvery = 4096

// durState is the engine's durability runtime, guarded by the engine
// write lock (the Log has its own internal lock for the sync goroutine).
type durState struct {
	log   *wal.Log
	dir   string
	fs    faultfs.FS
	crash wal.CrashFunc
	// every / sinceCkpt drive automatic checkpoints.
	every     int
	sinceCkpt int
	// softFree / hardFree are the disk-space watermarks (bytes; 0 = off).
	softFree int64
	hardFree int64
}

// RecoveryInfo describes what Open found on disk.
type RecoveryInfo struct {
	// CheckpointLoaded is true when a checkpoint file was restored;
	// CheckpointLSN is the LSN embedded in it.
	CheckpointLoaded bool
	CheckpointLSN    uint64
	// Replayed counts WAL records re-executed past the checkpoint;
	// ReplayErrors counts those whose statement failed (deterministic
	// failures that also failed before the crash).
	Replayed     int
	ReplayErrors int
	// TornTail is true when the WAL ended in a torn/corrupt record that
	// was truncated at the last valid frame.
	TornTail bool
	// LastLSN is the engine's log position after recovery.
	LastLSN uint64
}

func (ri *RecoveryInfo) String() string {
	if ri == nil {
		return "not durable"
	}
	ck := "no checkpoint"
	if ri.CheckpointLoaded {
		ck = fmt.Sprintf("checkpoint@%d", ri.CheckpointLSN)
	}
	torn := ""
	if ri.TornTail {
		torn = ", torn tail truncated"
	}
	return fmt.Sprintf("%s, %d replayed (%d failed)%s, lsn %d",
		ck, ri.Replayed, ri.ReplayErrors, torn, ri.LastLSN)
}

// Open creates an engine, recovering durable state when
// opts.Durability.Dir is set: it loads the latest checkpoint, replays the
// WAL tail (skipping records the checkpoint already covers), truncates a
// torn final record at the last valid frame, rebuilds graph views and
// their CSR snapshots from the recovered relations (§3.3 — topology is
// derived state and is never logged), and attaches the WAL so subsequent
// mutating statements are logged before they apply.
//
// A WAL or checkpoint that is unusable (not just torn) fails with an
// error matching wal.ErrCorruptWAL.
func Open(opts Options) (*Engine, *RecoveryInfo, error) {
	e := New(opts)
	d := opts.Durability
	if d.Dir == "" {
		return e, nil, nil
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{}
	// Phase 1: load the newest checkpoint, if any.
	ckptPath := filepath.Join(d.Dir, checkpointFile)
	if f, err := os.Open(ckptPath); err == nil {
		lsn, rerr := func() (uint64, error) {
			defer f.Close()
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.restoreLocked(f)
		}()
		if rerr != nil {
			return nil, nil, fmt.Errorf("%w: checkpoint %s: %v", wal.ErrCorruptWAL, ckptPath, rerr)
		}
		info.CheckpointLoaded, info.CheckpointLSN = true, lsn
	} else if !os.IsNotExist(err) {
		return nil, nil, err
	}
	// Phase 2: open the WAL — this scans it and truncates any torn tail —
	// and replay the records the checkpoint does not cover. The log is
	// not attached to the engine yet, so replayed statements are not
	// re-logged.
	lg, scan, err := wal.Open(filepath.Join(d.Dir, walFile), wal.Options{
		Fsync:     d.Fsync,
		Interval:  d.FsyncInterval,
		FaultHook: d.FaultHook,
		FS:        d.FS,
		OnSync:    func() { e.metrics.WALFsyncs.Inc() },
		OnAppend: func(n int) {
			e.metrics.WALAppends.Inc()
			e.metrics.WALAppendBytes.Add(int64(n))
		},
		OnRollback: func() { e.metrics.WALRollbacks.Inc() },
	})
	if err != nil {
		return nil, nil, err
	}
	info.TornTail = scan.Torn
	for _, rec := range scan.Records {
		if rec.LSN <= info.CheckpointLSN {
			continue // the checkpoint already contains this statement
		}
		if err := e.replayRecord(rec); err != nil {
			if errors.Is(err, wal.ErrCorruptWAL) {
				lg.Close()
				return nil, nil, err
			}
			info.ReplayErrors++
		}
		info.Replayed++
	}
	// Phase 3: attach the log for appends. A freshly rotated (empty) log
	// must continue the sequence from the checkpoint LSN.
	lg.EnsureLSN(info.CheckpointLSN)
	info.LastLSN = lg.LastLSN()
	e.mu.Lock()
	fs := d.FS
	if fs == nil {
		fs = faultfs.OS
	}
	e.dur = durState{
		log: lg, dir: d.Dir, fs: fs, crash: d.CrashHook,
		every: d.CheckpointEvery, softFree: d.SoftFreeBytes, hardFree: d.HardFreeBytes,
	}
	if e.dur.every == 0 {
		e.dur.every = defaultCheckpointEvery
	}
	e.health.durable.Store(true)
	e.health.healBase, e.health.healMax = d.HealBase, d.HealMax
	if e.health.healBase <= 0 {
		e.health.healBase = defaultHealBase
	}
	if e.health.healMax <= 0 {
		e.health.healMax = defaultHealMax
	}
	if e.health.healMax < e.health.healBase {
		e.health.healMax = e.health.healBase
	}
	// Rebuild the derived per-view CSR snapshots so the first traversal
	// after recovery does not pay the build.
	for _, name := range e.cat.GraphViews() {
		if gv, ok := e.cat.GraphView(name); ok {
			gv.CSR()
		}
	}
	// Publish the recovered state as one version: snapshot restore and
	// WAL replay happened behind the write lock (replayed statements each
	// published, but the checkpoint restore itself did not), so readers
	// admitted after Open returns pin the fully recovered database.
	e.publishLocked()
	e.mu.Unlock()
	e.metrics.WALRecoveries.Inc()
	return e, info, nil
}

// replayRecord re-executes one logged statement during recovery. The
// engine is deterministic, so a record either applies exactly as it did
// before the crash or fails exactly as it did before the crash; the
// allocation pin detects any divergence (a WAL that does not belong to
// this checkpoint) and surfaces it as corruption rather than silently
// rebuilding a different database.
func (e *Engine) replayRecord(rec *wal.Record) error {
	stmt, err := sql.Parse(rec.SQL)
	if err != nil {
		return fmt.Errorf("%w: record %d does not parse: %v", wal.ErrCorruptWAL, rec.LSN, err)
	}
	if rec.Table != "" {
		t, ok := e.cat.Table(rec.Table)
		if !ok {
			return fmt.Errorf("%w: record %d targets missing table %s", wal.ErrCorruptWAL, rec.LSN, rec.Table)
		}
		next, depth := t.AllocState()
		if uint64(next) != rec.NextSlot || uint32(depth) != rec.FreeDepth {
			return fmt.Errorf("%w: record %d replay divergence: table %s allocation state (%d,%d) != logged (%d,%d)",
				wal.ErrCorruptWAL, rec.LSN, rec.Table, next, depth, rec.NextSlot, rec.FreeDepth)
		}
	}
	_, err = e.execStmt(context.Background(), stmt, rec.SQL, rec.Params, nil)
	return err
}

// walRecordLocked builds the log record for a mutating statement: the SQL
// text, the bound parameters of a prepared execution, and the target
// table's pre-apply allocation pin. Requires the write lock.
func (e *Engine) walRecordLocked(stmt sql.Statement, text string, params []types.Value) *wal.Record {
	rec := &wal.Record{SQL: text, Params: params}
	var target string
	switch s := stmt.(type) {
	case *sql.Insert:
		target = s.Table
	case *sql.Update:
		target = s.Table
	case *sql.Delete:
		target = s.Table
	case *sql.TruncateTable:
		target = s.Name
	}
	if target != "" {
		if t, ok := e.cat.Table(target); ok {
			next, depth := t.AllocState()
			rec.Table, rec.NextSlot, rec.FreeDepth = t.Name(), uint64(next), uint32(depth)
		}
	}
	return rec
}

// walAppendLocked logs rec ahead of applying it. On failure nothing has
// been applied and nothing survives in the log: the statement aborts
// cleanly. Requires the write lock.
//
// This is also the engine's disk-fault choke point: every mutating
// statement on a durable engine passes through here (its one caller is
// commitLocked), so the degraded-mode gate, the disk-space watermarks, and
// the degrade triggers all live in one place. A transient injected write
// fault aborts only its own statement — the log rolled back cleanly and
// stays usable; the engine degrades only when the log itself is unusable
// (rollback truncation failed, file may end mid-frame) or the disk is out
// of space.
func (e *Engine) walAppendLocked(rec *wal.Record) (uint64, error) {
	if e.health.isDegraded() {
		e.metrics.DegradedWrites.Inc()
		reason := e.Health().Reason
		return 0, fmt.Errorf("%w (%s); reads still serve, retry writes after heal", ErrDegraded, reason)
	}
	if err := e.checkDiskSpaceLocked(); err != nil {
		return 0, err
	}
	lsn, err := e.dur.log.Append(rec)
	if err != nil {
		if reason := degradeReason(err, e.dur.log.Broken()); reason != "" {
			e.degradeLocked(reason)
			e.metrics.DegradedWrites.Inc()
			return 0, fmt.Errorf("statement aborted, not logged: %w: %v", ErrDegraded, err)
		}
		return 0, fmt.Errorf("statement aborted, not logged: %w", err)
	}
	return lsn, nil
}

// degradeReason classifies a failed append: "" means transient (abort the
// statement, stay healthy), anything else degrades the engine.
func degradeReason(err, broken error) string {
	switch {
	case broken != nil:
		return "wal unusable: " + broken.Error()
	case errors.Is(err, syscall.ENOSPC):
		return "disk full: " + err.Error()
	}
	return ""
}

// checkDiskSpaceLocked enforces the disk-space watermarks before an
// append. Under the soft watermark it reclaims WAL space with a
// checkpoint + rotation (the snapshot replaces an arbitrarily long log
// with one bounded by live data); under the hard watermark it degrades
// the engine rather than consume the disk's last bytes. Requires the
// write lock.
func (e *Engine) checkDiskSpaceLocked() error {
	d := &e.dur
	if d.softFree <= 0 && d.hardFree <= 0 {
		return nil
	}
	free, ok := d.fs.Free(d.dir)
	if !ok {
		return nil
	}
	if d.hardFree > 0 && free < d.hardFree {
		e.degradeLocked(fmt.Sprintf("free disk space %d B under hard watermark %d B", free, d.hardFree))
		e.metrics.DegradedWrites.Inc()
		return fmt.Errorf("%w: free disk space %d B under hard watermark %d B", ErrDegraded, free, d.hardFree)
	}
	if d.softFree > 0 && free < d.softFree && d.log.Size() > wal.HeaderSize {
		if err := e.checkpointLocked(); err != nil {
			log.Printf("core: soft-watermark checkpoint: %v", err)
			if errors.Is(err, syscall.ENOSPC) {
				e.degradeLocked("disk full during soft-watermark checkpoint: " + err.Error())
				e.metrics.DegradedWrites.Inc()
				return fmt.Errorf("%w: %v", ErrDegraded, err)
			}
			// Any other checkpoint failure: the append below may still
			// succeed; let it decide the statement's fate.
		}
	}
	return nil
}

// finishWALLocked settles the WAL after the statement body ran. A
// statement that failed to apply rolled itself back (the undo journal),
// so its record is removed from the log to keep disk and memory
// describing the same history; a statement that applied counts toward the
// automatic checkpoint threshold. Requires the write lock.
func (e *Engine) finishWALLocked(lsn uint64, applyErr error) {
	if lsn == 0 {
		return
	}
	if applyErr != nil {
		if err := e.dur.log.RollbackLast(lsn); err != nil {
			// The record stays; replay will re-run the statement into the
			// same deterministic failure, so recovery stays correct.
			log.Printf("core: wal rollback of LSN %d: %v", lsn, err)
			if b := e.dur.log.Broken(); b != nil {
				e.degradeLocked("wal unusable after failed statement rollback: " + b.Error())
			}
		}
		return
	}
	e.dur.sinceCkpt++
	if e.dur.every > 0 && e.dur.sinceCkpt >= e.dur.every {
		if err := e.checkpointLocked(); err != nil {
			log.Printf("core: automatic checkpoint: %v", err)
			if errors.Is(err, syscall.ENOSPC) {
				e.degradeLocked("disk full during automatic checkpoint: " + err.Error())
			}
		}
	}
}

// Checkpoint writes a durable snapshot (temp file, fsync, atomic rename)
// and truncates the WAL. Fails on a non-durable engine.
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dur.log == nil {
		return errors.New("engine is not durable (no WAL directory configured)")
	}
	return e.checkpointLocked()
}

// checkpointLocked implements the checkpoint/truncation protocol under
// the write lock: embed the current LSN in a snapshot, write it atomically
// beside the WAL, then rotate the WAL to empty. A crash between the
// rename and the rotation is safe — recovery skips replayed records at or
// below the checkpoint LSN.
func (e *Engine) checkpointLocked() error {
	lsn := e.dur.log.LastLSN()
	path := filepath.Join(e.dur.dir, checkpointFile)
	err := wal.WriteFileAtomicFS(e.dur.fs, path, func(w io.Writer) error {
		return e.encodeSnapshotLocked(w, lsn)
	}, e.dur.crash)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := e.dur.log.Rotate(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	e.dur.sinceCkpt = 0
	e.metrics.WALCheckpoints.Inc()
	return nil
}

// Durable reports whether the engine has a WAL attached.
func (e *Engine) Durable() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dur.log != nil
}

// WALFsyncPolicy returns the current fsync policy of a durable engine.
func (e *Engine) WALFsyncPolicy() (wal.FsyncPolicy, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.dur.log == nil {
		return 0, false
	}
	return e.dur.log.Policy(), true
}

// Shutdown gracefully stops a durable engine: final checkpoint, WAL
// close. Mutating statements issued afterwards fail (wal.ErrClosed);
// reads keep working. On a non-durable engine it is Close.
func (e *Engine) Shutdown() error {
	e.stopHealer()
	var err error
	e.mu.Lock()
	if e.dur.log != nil {
		err = e.checkpointLocked()
	}
	e.mu.Unlock()
	e.Close()
	return err
}

// Kill simulates a crash for the recovery tests: the WAL file descriptor
// is dropped with no sync, no checkpoint and no cleanup — whatever the OS
// already has is what recovery will see. The engine must not be used
// afterwards; recover with Open.
func (e *Engine) Kill() {
	e.stopHealer()
	e.mu.Lock()
	lg := e.dur.log
	e.mu.Unlock()
	if lg != nil {
		lg.Abandon()
	}
	e.Close()
}
