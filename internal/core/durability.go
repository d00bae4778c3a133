package core

import (
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
	// statement once it applied, and Open recovers state from these files
	// on startup. Empty disables durability.
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

	// HealBase / HealMax bound the self-healing retry's capped
	// exponential backoff once the engine degrades (defaults 25ms / 2s).
	HealBase time.Duration
	HealMax  time.Duration

	// FS is the storage layer the WAL and checkpoints are written and read
	// through; nil means the real filesystem. Tests pass a faultfs.Faulty
	// here to inject disk faults and power cuts.
	FS faultfs.FS
}

// WAL/checkpoint file names inside Durability.Dir. The checkpoint is WAL
// frames, not encoding/gob, but keeps its name: the benchmark's device
// trace finds checkpoints by the "checkpoint.gob" suffix.
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
	log *wal.Log
	dir string
	fs  faultfs.FS
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
	// Replayed counts WAL records re-executed past the checkpoint.
	Replayed int
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
	return fmt.Sprintf("%s, %d replayed%s, lsn %d", ck, ri.Replayed, torn, ri.LastLSN)
}

// Open creates an engine, recovering durable state when
// opts.Durability.Dir is set: it loads the latest checkpoint, replays the
// WAL tail (skipping records the checkpoint already covers), truncates a
// torn final record at the last valid frame, rebuilds graph views from
// the recovered relations (§3.3 — topology is derived state and is never
// logged), and attaches the WAL so subsequent mutating statements are
// logged as they apply.
//
// A WAL or checkpoint that is unusable (not just torn), and a record that
// fails on replay, fail with an error matching wal.ErrCorruptWAL.
func Open(opts Options) (*Engine, *RecoveryInfo, error) {
	e := New(opts)
	d := opts.Durability
	if d.Dir == "" {
		return e, nil, nil
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	fs := d.FS
	if fs == nil {
		fs = faultfs.OS
	}
	info := &RecoveryInfo{}
	// Recovery holds the write lock throughout: no reader can exist yet,
	// and the one publish at the end covers the checkpoint and every
	// replayed record.
	e.mu.Lock()
	defer e.mu.Unlock()
	// Phase 1: load the newest checkpoint, if any.
	loaded, lsn, err := e.loadCheckpointLocked(fs, filepath.Join(d.Dir, checkpointFile))
	if err != nil {
		return nil, nil, err
	}
	info.CheckpointLoaded, info.CheckpointLSN = loaded, lsn
	// Phase 2: open the WAL — this scans it and truncates any torn tail —
	// and replay the records the checkpoint does not cover. The log is
	// not attached to the engine yet, so replayed statements are not
	// re-logged.
	lg, scan, err := wal.Open(filepath.Join(d.Dir, walFile), wal.Options{
		Fsync:    d.Fsync,
		Interval: d.FsyncInterval,
		FS:       fs,
		OnSync:   func() { e.metrics.WALFsyncs.Inc() },
		OnAppend: func(n int) {
			e.metrics.WALAppends.Inc()
			e.metrics.WALAppendBytes.Add(int64(n))
		},
	})
	if err != nil {
		return nil, nil, err
	}
	info.TornTail = scan.Torn
	for _, rec := range scan.Records {
		if rec.LSN <= info.CheckpointLSN {
			continue // the checkpoint already contains this statement
		}
		if err := e.replayLocked(rec); err != nil {
			lg.Close()
			return nil, nil, err
		}
		info.Replayed++
	}
	// Phase 3: attach the log for appends. A freshly rotated (empty) log
	// must continue the sequence from the checkpoint LSN.
	lg.EnsureLSN(info.CheckpointLSN)
	info.LastLSN = lg.LastLSN()
	e.dur = durState{
		log: lg, dir: d.Dir, fs: fs,
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
	// Publish the recovered state as one version, so readers admitted
	// after Open returns pin the fully recovered database; graph-view
	// deltas the replay built merge at this publish's settle.
	e.publishLocked()
	e.metrics.WALRecoveries.Inc()
	return e, info, nil
}

// loadCheckpointLocked restores the checkpoint at path, read through fsys
// like every other durable byte. A missing file means there is none. An
// open or read error names the path and wraps its cause; a file that does
// not load is ErrCorruptWAL. Requires the write lock.
func (e *Engine) loadCheckpointLocked(fsys faultfs.FS, path string) (loaded bool, lsn uint64, err error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return false, 0, nil
	}
	if err != nil {
		return false, 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	defer f.Close()
	r := &readErrs{r: f}
	lsn, err = e.restoreLocked(r)
	switch {
	case r.err != nil:
		return false, 0, fmt.Errorf("checkpoint %s: %w", path, r.err)
	case err != nil:
		return false, 0, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return true, lsn, nil
}

// readErrs keeps the first read error of r, so a failing disk is told
// apart from a file that does not decode.
type readErrs struct {
	r   io.Reader
	err error
}

func (r *readErrs) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil && err != io.EOF && r.err == nil {
		r.err = err
	}
	return n, err
}

// replayLocked re-applies one logged statement during recovery, under
// the write lock Open holds, without a publish of its own. Every record in
// the log applied before the crash and the engine is deterministic, so it
// applies again exactly as it did. The allocation pin and the statement's
// own success check that: a divergence (a WAL that does not belong to this
// checkpoint) surfaces as corruption naming the record, rather than
// silently rebuilding a different database.
func (e *Engine) replayLocked(rec *wal.Record) error {
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
	_, err = e.commitLocked(stmt, rec.SQL, rec.Params, func(tx *txn) (*Result, error) {
		return e.applyLocked(tx, stmt, rec.Params)
	})
	if err != nil {
		return fmt.Errorf("%w: record %d failed on replay: %v", wal.ErrCorruptWAL, rec.LSN, err)
	}
	return nil
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

// walAppendLocked logs the record of a statement that applied (synced per
// policy). On failure the log holds nothing of it — Append truncates a
// partial frame — and commitLocked undoes the statement. Requires the
// write lock.
//
// With walGateLocked this is the engine's disk-fault choke point: every
// mutating statement on a durable engine passes through both (their one
// caller is commitLocked). A transient injected write fault aborts only
// its own statement and the log stays usable; the engine degrades only
// when the log itself is unusable (its truncate failed, so the file may
// end mid-frame) or the disk is out of space.
func (e *Engine) walAppendLocked(rec *wal.Record) error {
	if _, err := e.dur.log.Append(rec); err != nil {
		if reason := degradeReason(err, e.dur.log.Broken()); reason != "" {
			e.degradeLocked(reason)
			e.metrics.DegradedWrites.Inc()
			return fmt.Errorf("statement aborted, not logged: %w: %v", ErrDegraded, err)
		}
		return fmt.Errorf("statement aborted, not logged: %w", err)
	}
	return nil
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

// walGateLocked admits a write on a durable engine before it applies: a
// degraded engine refuses it, and the disk-space watermarks are enforced.
// Under the soft watermark it reclaims WAL space with a checkpoint +
// rotation (the snapshot replaces an arbitrarily long log with one bounded
// by live data); under the hard watermark it degrades the engine rather
// than consume the disk's last bytes. It runs before apply because that
// checkpoint images memory: taken after apply, it would hold a statement
// the log does not, and replay would apply it twice. Requires the write
// lock.
func (e *Engine) walGateLocked() error {
	if e.health.isDegraded() {
		e.metrics.DegradedWrites.Inc()
		return fmt.Errorf("%w (%s); reads still serve, retry writes after heal", ErrDegraded, e.Health().Reason)
	}
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
			// Any other checkpoint failure: the append may still
			// succeed; let it decide the statement's fate.
		}
	}
	return nil
}

// finishWALLocked counts a logged statement toward the automatic
// checkpoint threshold and takes the checkpoint once it is reached.
// Requires the write lock.
func (e *Engine) finishWALLocked() {
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
	})
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

// Durable reports whether the engine has a WAL attached. Lock-free.
func (e *Engine) Durable() bool { return e.health.durable.Load() }

// WALFsyncPolicy returns the current fsync policy of a durable engine.
// Lock-free: Open attaches the log before it returns the engine, and the
// log guards its policy itself.
func (e *Engine) WALFsyncPolicy() (wal.FsyncPolicy, bool) {
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

// Close stops the background healer and, on a durable engine, syncs and
// closes the WAL without a final checkpoint (use Shutdown for
// checkpoint-on-exit). A non-durable engine remains usable for statements
// afterwards; a durable one keeps serving reads but rejects further
// mutations.
func (e *Engine) Close() {
	e.stopHealer()
	if e.dur.log != nil {
		if err := e.dur.log.Close(); err != nil {
			log.Printf("core: close wal: %v", err)
		}
	}
}

// Kill simulates a crash for the recovery tests: the WAL file descriptor
// is dropped with no sync, no checkpoint and no cleanup — whatever the OS
// already has is what recovery will see. The engine must not be used
// afterwards; recover with Open.
func (e *Engine) Kill() {
	e.stopHealer()
	if e.dur.log != nil {
		e.dur.log.Abandon()
	}
	e.Close()
}
