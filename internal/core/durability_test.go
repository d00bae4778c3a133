package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"grfusion/internal/graph"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// durSetup is a small schema with a graph view so recovery exercises the
// §3.3 rebuild path, not just relational state.
const durSetup = `
CREATE TABLE people (id BIGINT, name VARCHAR, PRIMARY KEY (id));
CREATE TABLE knows (id BIGINT, src BIGINT, dst BIGINT, w BIGINT, PRIMARY KEY (id));
CREATE GRAPH VIEW net
  VERTEXES (ID = id, name = name) FROM people
  EDGES (ID = id, FROM = src, TO = dst, w = w) FROM knows;
`

func openDur(t *testing.T, dir string, opts Options) (*Engine, *RecoveryInfo) {
	t.Helper()
	opts.Durability.Dir = dir
	e, info, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e, info
}

func mustExecAll(t *testing.T, e *Engine, script string) {
	t.Helper()
	if _, err := e.ExecuteScript(script); err != nil {
		t.Fatalf("script: %v", err)
	}
}

// topoSig renders a graph topology (IDs, endpoints and tuple pointers) as
// a canonical string for byte-identical comparison.
func topoSig(g *graph.Graph) string {
	var vs, es []string
	g.Vertices(func(v *graph.Vertex) bool {
		vs = append(vs, fmt.Sprintf("v%d@%d", v.ID, v.Tuple))
		return true
	})
	g.Edges(func(e *graph.Edge) bool {
		es = append(es, fmt.Sprintf("e%d:%d->%d@%d", e.ID, e.From.ID, e.To.ID, e.Tuple))
		return true
	})
	sort.Strings(vs)
	sort.Strings(es)
	return strings.Join(vs, ",") + "|" + strings.Join(es, ",")
}

// querySig runs a query and renders sorted results.
func querySig(t *testing.T, e *Engine, q string) string {
	t.Helper()
	res, err := e.Execute(q)
	if err != nil {
		t.Fatalf("query %s: %v", q, err)
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// stateSig captures everything the recovery tests compare: relational
// contents, live topology, a from-scratch topology rebuild, and a
// traversal result.
func stateSig(t *testing.T, e *Engine) string {
	t.Helper()
	live, err := e.GraphTopology("net")
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.RebuildGraphView("net")
	if err != nil {
		t.Fatal(err)
	}
	liveSig, rebuiltSig := topoSig(live), topoSig(rebuilt)
	if liveSig != rebuiltSig {
		t.Fatalf("live topology diverges from from-scratch rebuild:\nlive    %s\nrebuilt %s", liveSig, rebuiltSig)
	}
	return querySig(t, e, "SELECT id, name FROM people") + "\n--\n" +
		querySig(t, e, "SELECT id, src, dst, w FROM knows") + "\n--\n" + liveSig
}

func seedRows(t *testing.T, e *Engine, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		mustExecAll(t, e, fmt.Sprintf("INSERT INTO people VALUES (%d, 'p%d')", i, i))
	}
	for i := 1; i < n; i++ {
		mustExecAll(t, e, fmt.Sprintf("INSERT INTO knows VALUES (%d, %d, %d, %d)", i, i, i+1, i*10))
	}
}

func TestRecoveryWALOnly(t *testing.T) {
	dir := t.TempDir()
	e, info := openDur(t, dir, Options{})
	if info == nil || info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("fresh dir: %+v", info)
	}
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 5)
	mustExecAll(t, e, "DELETE FROM knows WHERE id = 2")
	mustExecAll(t, e, "UPDATE people SET name = 'renamed' WHERE id = 3")
	want := stateSig(t, e)
	e.Kill()

	// WAL only, no checkpoint: everything replays.
	r, info2 := openDur(t, dir, Options{})
	defer r.Close()
	if info2.CheckpointLoaded {
		t.Fatalf("no checkpoint was written, but one loaded: %+v", info2)
	}
	if info2.Replayed == 0 || info2.ReplayErrors != 0 {
		t.Fatalf("recovery: %+v", info2)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestRecoveryCheckpointAndTail(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 4)
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint tail: these live only in the WAL.
	mustExecAll(t, e, "INSERT INTO people VALUES (100, 'tail')")
	mustExecAll(t, e, "INSERT INTO knows VALUES (100, 100, 1, 7)")
	want := stateSig(t, e)
	e.Kill()

	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if !info.CheckpointLoaded {
		t.Fatalf("checkpoint not loaded: %+v", info)
	}
	if info.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2 (the post-checkpoint tail): %+v", info.Replayed, info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestRecoveryCheckpointEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)
	want := stateSig(t, e)
	// Graceful shutdown: final checkpoint, rotated (empty) WAL.
	if err := e.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After shutdown, reads still work but mutations are rejected.
	if _, err := e.Execute("SELECT id FROM people"); err != nil {
		t.Fatalf("read after shutdown: %v", err)
	}
	if _, err := e.Execute("INSERT INTO people VALUES (9, 'x')"); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("mutation after shutdown: %v, want ErrClosed", err)
	}

	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if !info.CheckpointLoaded || info.Replayed != 0 {
		t.Fatalf("snapshot-but-empty-WAL recovery: %+v", info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
	// The LSN sequence must continue past the checkpoint, not restart.
	if info.LastLSN == 0 {
		t.Fatalf("LSN restarted: %+v", info)
	}
}

func TestRecoveryTornTail(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int64 // how much to keep relative to the last frame boundary
	}{
		{"mid frame", -3},
		{"exact frame boundary", 0},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			e, _ := openDur(t, dir, Options{})
			mustExecAll(t, e, durSetup)
			seedRows(t, e, 4)
			wantBefore := stateSig(t, e)
			// The victim statement: its frame will be torn off.
			mustExecAll(t, e, "INSERT INTO people VALUES (50, 'lost')")
			e.Kill()

			walPath := filepath.Join(dir, "wal.log")
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			// Tear the victim's frame off: a few bytes into it (mid-frame),
			// or exactly at the boundary where it starts (clean cut).
			var lastStart int64
			if cut.bytes < 0 {
				lastStart = fi.Size() + cut.bytes
			} else {
				lastStart = frameStartOfLast(t, walPath)
			}
			if err := os.Truncate(walPath, lastStart); err != nil {
				t.Fatal(err)
			}

			r, info := openDur(t, dir, Options{})
			defer r.Close()
			if cut.bytes < 0 && !info.TornTail {
				t.Fatalf("mid-frame cut not reported as torn: %+v", info)
			}
			if info.ReplayErrors != 0 {
				t.Fatalf("replay errors: %+v", info)
			}
			// The victim insert is gone; everything before it recovered,
			// with graph views identical to a from-scratch rebuild
			// (stateSig asserts that).
			if got := stateSig(t, r); got != wantBefore {
				t.Fatalf("recovered state differs:\n got %s\nwant %s", got, wantBefore)
			}
		})
	}
}

// frameStartOfLast returns the byte offset where the final frame of the
// WAL begins, by walking the length-prefixed frames.
func frameStartOfLast(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := wal.Scan(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) == 0 {
		t.Fatal("no frames")
	}
	off := int64(wal.HeaderSize)
	prev := off
	for off < scan.ValidBytes {
		prev = off
		length := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + length
	}
	return prev
}

func TestDoubleRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 6)
	mustExecAll(t, e, "DELETE FROM knows WHERE id = 3")
	want := stateSig(t, e)
	e.Kill()

	r1, info1 := openDur(t, dir, Options{})
	sig1 := stateSig(t, r1)
	r1.Kill() // crash again without writing anything

	r2, info2 := openDur(t, dir, Options{})
	defer r2.Close()
	sig2 := stateSig(t, r2)
	if sig1 != want || sig2 != want {
		t.Fatalf("double recovery diverged:\nwant %s\n r1  %s\n r2  %s", want, sig1, sig2)
	}
	if info1.Replayed != info2.Replayed {
		t.Fatalf("replay counts differ: %d vs %d", info1.Replayed, info2.Replayed)
	}
}

func TestFailedStatementsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)
	// Duplicate PK: logged ahead of apply, rolled back out of the log
	// when the apply fails.
	if _, err := e.Execute("INSERT INTO people VALUES (1, 'dup')"); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if _, err := e.Execute("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	mustExecAll(t, e, "INSERT INTO people VALUES (42, 'after')")
	want := stateSig(t, e)
	e.Kill()

	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if info.ReplayErrors != 0 {
		t.Fatalf("failed statements leaked into the WAL: %+v", info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestAbortedInsertLeavesNoAllocatorTrace pins a bug the chaos soak found:
// an INSERT that extended its table's row array and then failed graph-view
// maintenance (edge endpoint vertex absent) was compensated with a plain
// Delete, leaving one extra slot plus one free-list hole. The aborted
// statement leaves no WAL record, so replay — which only ever sees applied
// statements — could never reproduce that allocator state, and the next
// statement's allocation pin made recovery fail with ErrCorruptWAL.
func TestAbortedInsertLeavesNoAllocatorTrace(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)

	knows, _ := e.cat.Table("knows")
	next, depth := knows.AllocState()
	// dst vertex 999 does not exist: the tuple lands in the table, then
	// §3.3 maintenance rejects it and the statement aborts.
	if _, err := e.Execute("INSERT INTO knows VALUES (50, 1, 999, 1)"); err == nil {
		t.Fatal("edge insert with a missing endpoint vertex succeeded")
	}
	if n, d := knows.AllocState(); n != next || d != depth {
		t.Fatalf("aborted insert left an allocator trace: (%d,%d) -> (%d,%d)", next, depth, n, d)
	}

	mustExecAll(t, e, "INSERT INTO knows VALUES (51, 1, 2, 7)")
	want := stateSig(t, e)
	e.Kill()

	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if info.ReplayErrors != 0 {
		t.Fatalf("recovery after aborted insert: %+v", info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestPreparedDMLRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	ins, err := e.PrepareDML("INSERT INTO people VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := ins.Exec(types.NewInt(int64(i)), types.NewString(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A failing prepared execution must also be rolled out of the log.
	if _, err := ins.Exec(types.NewInt(1), types.NewString("dup")); err == nil {
		t.Fatal("duplicate prepared insert succeeded")
	}
	del, err := e.PrepareDML("DELETE FROM people WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := del.Exec(types.NewInt(4)); err != nil {
		t.Fatal(err)
	}
	want := querySig(t, e, "SELECT id, name FROM people")
	e.Kill()

	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if info.ReplayErrors != 0 {
		t.Fatalf("recovery: %+v", info)
	}
	if got := querySig(t, r, "SELECT id, name FROM people"); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestCheckpointCrashWindows(t *testing.T) {
	for _, pt := range []wal.CrashPoint{wal.CrashAfterTemp, wal.CrashAfterSync, wal.CrashAfterRename} {
		t.Run(string(pt), func(t *testing.T) {
			dir := t.TempDir()
			boom := errors.New("injected crash")
			armed := false
			opts := Options{}
			opts.Durability.CrashHook = func(p wal.CrashPoint) error {
				if armed && p == pt {
					return boom
				}
				return nil
			}
			e, _ := openDur(t, dir, opts)
			mustExecAll(t, e, durSetup)
			seedRows(t, e, 5)
			want := stateSig(t, e)
			armed = true
			if err := e.Checkpoint(); !errors.Is(err, boom) {
				t.Fatalf("checkpoint with crash at %s: %v", pt, err)
			}
			e.Kill()

			r, info := openDur(t, dir, Options{})
			defer r.Close()
			if info.ReplayErrors != 0 {
				t.Fatalf("recovery after crash at %s: %+v", pt, info)
			}
			if got := stateSig(t, r); got != want {
				t.Fatalf("crash at %s lost state:\n got %s\nwant %s", pt, got, want)
			}
		})
	}
}

func TestAutomaticCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{}
	opts.Durability.CheckpointEvery = 5
	e, _ := openDur(t, dir, opts)
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 6) // 11 DML statements: at least one automatic checkpoint
	if !wal.Exists(filepath.Join(dir, "checkpoint.gob")) {
		t.Fatal("no automatic checkpoint after exceeding CHECKPOINT_EVERY")
	}
	want := stateSig(t, e)
	e.Kill()
	r, info := openDur(t, dir, Options{})
	defer r.Close()
	if !info.CheckpointLoaded {
		t.Fatalf("recovery: %+v", info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

func TestSetDurabilityTunables(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	defer e.Close()
	mustExecAll(t, e, "SET WAL_FSYNC = INTERVAL")
	if p, ok := e.WALFsyncPolicy(); !ok || p != wal.FsyncInterval {
		t.Fatalf("policy %v ok=%v after SET WAL_FSYNC = INTERVAL", p, ok)
	}
	mustExecAll(t, e, "SET WAL_FSYNC = 'off'")
	if p, _ := e.WALFsyncPolicy(); p != wal.FsyncOff {
		t.Fatalf("policy %v after SET WAL_FSYNC = 'off'", p)
	}
	mustExecAll(t, e, "SET WAL_FSYNC = ALWAYS; SET CHECKPOINT_EVERY = 100")
	if _, err := e.Execute("SET WAL_FSYNC = SOMETIMES"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if _, err := e.Execute("SET CHECKPOINT_EVERY = -1"); err == nil {
		t.Fatal("negative checkpoint threshold accepted")
	}

	// On a non-durable engine the tunables are meaningful errors.
	plain := New(Options{})
	if _, err := plain.Execute("SET WAL_FSYNC = ALWAYS"); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("SET WAL_FSYNC on non-durable engine: %v", err)
	}
	if _, err := plain.Execute("SET CHECKPOINT_EVERY = 10"); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("SET CHECKPOINT_EVERY on non-durable engine: %v", err)
	}
}

func TestRecoveryRejectsForeignWAL(t *testing.T) {
	// A WAL whose records do not match the checkpoint (here: a fresh
	// checkpoint against a WAL from a different history) must fail with
	// typed corruption, not silently rebuild a wrong database.
	dirA := t.TempDir()
	a, _ := openDur(t, dirA, Options{})
	mustExecAll(t, a, durSetup)
	seedRows(t, a, 4)
	a.Kill()

	dirB := t.TempDir()
	b, _ := openDur(t, dirB, Options{})
	mustExecAll(t, b, durSetup)
	seedRows(t, b, 2) // different allocation history
	mustExecAll(t, b, "DELETE FROM people WHERE id = 1")
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b.Kill()

	// Graft A's WAL (full history) onto B's checkpoint.
	data, err := os.ReadFile(filepath.Join(dirA, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, "wal.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Durability.Dir = dirB
	_, _, err = Open(opts)
	if err == nil || !errors.Is(err, wal.ErrCorruptWAL) {
		t.Fatalf("foreign WAL accepted: %v", err)
	}
}

func TestRecoveryCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.gob"), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	opts.Durability.Dir = dir
	if _, _, err := Open(opts); !errors.Is(err, wal.ErrCorruptWAL) {
		t.Fatalf("corrupt checkpoint: %v, want ErrCorruptWAL", err)
	}
}

func TestDurabilityMetrics(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := map[string]int64{}
	for _, kv := range e.MetricsSnapshot() {
		m[kv.Name] = kv.Value
	}
	if m["wal.appends"] == 0 || m["wal.bytes"] == 0 {
		t.Fatalf("append metrics missing: %v", m)
	}
	if m["wal.fsyncs"] == 0 {
		t.Fatalf("fsync metric missing (policy always): %v", m)
	}
	if m["wal.checkpoints"] != 1 {
		t.Fatalf("wal.checkpoints = %d, want 1", m["wal.checkpoints"])
	}
	e.Kill()
	r, _ := openDur(t, dir, Options{})
	defer r.Close()
	m2 := map[string]int64{}
	for _, kv := range r.MetricsSnapshot() {
		m2[kv.Name] = kv.Value
	}
	if m2["wal.recoveries"] != 1 {
		t.Fatalf("wal.recoveries = %d, want 1", m2["wal.recoveries"])
	}
}
