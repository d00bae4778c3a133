package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"grfusion/internal/faultfs"
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
	if info2.Replayed == 0 {
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

// TestFailedStatementsNotReplayed proves a statement that fails to apply
// never reaches the disk: it applies before it is logged, so its failure
// costs no file op at all, and recovery replays only what applied.
func TestFailedStatementsNotReplayed(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.NewFaulty(nil, 1)
	opts := Options{Durability: Durability{FS: ffs}}
	e, _ := openDur(t, dir, opts)
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)
	ops := ffs.Ops()
	if _, err := e.Execute("INSERT INTO people VALUES (1, 'dup')"); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if _, err := e.Execute("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	if got := ffs.Ops() - ops; got != 0 {
		t.Fatalf("two failed statements made %d file ops, want 0", got)
	}
	mustExecAll(t, e, "INSERT INTO people VALUES (42, 'after')")
	want := stateSig(t, e)
	e.Kill()

	r, info := openDur(t, dir, opts)
	defer r.Close()
	if info.Replayed != 3+5+1 {
		t.Fatalf("recovery replayed %d records, want the 9 statements that applied (%s)", info.Replayed, info)
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

	r, _ := openDur(t, dir, Options{})
	defer r.Close()
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// undoSig extends stateSig with everything a failed statement must leave
// as it found it: every table's rows, allocator state and index
// definitions, and the catalog's table, graph-view and materialized-view
// lists.
func undoSig(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(stateSig(t, e))
	for _, name := range e.cat.Tables() {
		tab, _ := e.cat.Table(name)
		next, depth := tab.AllocState()
		fmt.Fprintf(&sb, "\n--\n%s alloc (%d,%d) indexes %v\n%s", name, next, depth, tab.Indexes(),
			querySig(t, e, "SELECT * FROM "+name))
	}
	for _, what := range []string{"TABLES", "GRAPH VIEWS", "MATERIALIZED VIEWS"} {
		fmt.Fprintf(&sb, "\n--\n%s: %s", what, querySig(t, e, "SHOW "+what))
	}
	return sb.String()
}

// TestWALAppendFailureUndoesStatement fails the WAL write of every kind of
// mutating statement once it applied: the statement must fail without
// degrading the engine, and its transaction's undo journal must leave the
// database exactly as it was — rows, allocator state, indexes, graph
// topology and catalog. The next statement succeeds, and a crash recovers
// the same database.
func TestWALAppendFailureUndoesStatement(t *testing.T) {
	exec := func(q string) func(*Engine) error {
		return func(e *Engine) error {
			_, err := e.Execute(q)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(*Engine) error
	}{
		{"insert vertex", exec("INSERT INTO people VALUES (100, 'new')")},
		{"insert edge", exec("INSERT INTO knows VALUES (100, 1, 4, 7)")},
		{"update attribute", exec("UPDATE people SET name = 'renamed' WHERE id = 2")},
		{"update id rewire", exec("UPDATE people SET id = 200 WHERE id = 2")},
		{"cascading vertex delete", exec("DELETE FROM people WHERE id = 3")},
		{"prepared DML", func(e *Engine) error {
			ins, err := e.PrepareDML("INSERT INTO people VALUES (?, ?)")
			if err != nil {
				return err
			}
			_, err = ins.Exec(types.NewInt(101), types.NewString("prepared"))
			return err
		}},
		{"COPY batch", func(e *Engine) error {
			b, err := e.BeginBulk("knows", nil, 2)
			if err != nil {
				return err
			}
			_, err = b.Append([]types.Row{
				{types.NewInt(102), types.NewInt(1), types.NewInt(5), types.NewInt(1)},
				{types.NewInt(103), types.NewInt(5), types.NewInt(1), types.NewInt(2)},
			})
			b.Close()
			return err
		}},
		{"create table", exec("CREATE TABLE extra (k BIGINT PRIMARY KEY)")},
		{"create index", exec("CREATE INDEX people_name ON people (name)")},
		{"create graph view", exec("CREATE GRAPH VIEW net3 VERTEXES (ID = id) FROM people EDGES (ID = id, FROM = src, TO = dst) FROM knows")},
		{"create materialized view", exec("CREATE MATERIALIZED VIEW light AS SELECT id, w FROM knows WHERE w < 30")},
		{"drop table", exec("DROP TABLE misc")},
		{"drop graph view", exec("DROP GRAPH VIEW net2")},
		{"drop materialized view", exec("DROP MATERIALIZED VIEW named")},
		{"truncate", exec("TRUNCATE TABLE misc")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFaulty(nil, 1)
			opts := Options{Durability: Durability{FS: ffs}}
			e, _ := openDur(t, dir, opts)
			defer e.Close()
			mustExecAll(t, e, durSetup)
			seedRows(t, e, 5)
			mustExecAll(t, e, `
CREATE TABLE misc (k BIGINT PRIMARY KEY, v VARCHAR);
INSERT INTO misc VALUES (1, 'a'), (2, 'b');
CREATE INDEX misc_v ON misc (v);
CREATE MATERIALIZED VIEW named AS SELECT id, name FROM people WHERE id > 1;
CREATE GRAPH VIEW net2 VERTEXES (ID = id) FROM people EDGES (ID = id, FROM = src, TO = dst) FROM knows;
`)
			before := undoSig(t, e)

			ffs.Arm(1, syscall.EIO) // the statement's WAL write
			err := tc.run(e)
			var inj *faultfs.InjectedError
			if !errors.As(err, &inj) || inj.Op != faultfs.OpWrite {
				t.Fatalf("statement with its WAL write failing: err = %v, want the injected write fault", err)
			}
			if h := e.Health(); h.State != StateHealthy {
				t.Fatalf("a failed WAL write degraded the engine: %s", h.Reason)
			}
			if got := undoSig(t, e); got != before {
				t.Fatalf("the failed statement left a trace:\n got %s\nwant %s", got, before)
			}

			if err := tc.run(e); err != nil {
				t.Fatalf("the statement after the fault: %v", err)
			}
			want := undoSig(t, e)
			e.Kill()
			r, _ := openDur(t, dir, opts)
			defer r.Close()
			if got := undoSig(t, r); got != want {
				t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
			}
		})
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
	// A failing prepared execution must not reach the log either.
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

	r, _ := openDur(t, dir, Options{})
	defer r.Close()
	if got := querySig(t, r, "SELECT id, name FROM people"); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointCrashWindows cuts the power at every eligible op of one
// Checkpoint — the temp file's open, writes, sync and rename, then the WAL
// rotate's open, write, sync and rename — and proves every cut recovers to
// the acknowledged state. Each cut is named for the last step that
// completed before it. A heal attempt of a degraded engine is the second
// driver, its cuts prefixed "heal-": recovery must also keep the
// configured QUERY_TIMEOUT, though the engine ran with another one.
func TestCheckpointCrashWindows(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 1)
	opts := Options{QueryTimeout: 5 * time.Second, Durability: Durability{
		FS: ffs, HardFreeBytes: 1, HealBase: time.Hour, HealMax: time.Hour}}
	heal := func(e *Engine) error {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.healAttemptLocked()
	}
	for _, d := range []struct {
		name, prefix string
		run          func(*Engine) error
	}{{"checkpoint", "", (*Engine).Checkpoint}, {"heal", "heal-", heal}} {
		setup := func(t *testing.T) (*Engine, string, string) {
			dir := t.TempDir()
			e, _ := openDur(t, dir, opts)
			mustExecAll(t, e, durSetup)
			seedRows(t, e, 5)
			want := stateSig(t, e)
			if d.prefix == "heal-" {
				// A runtime timeout the restarted engine must not inherit,
				// then a write the full disk refuses: the engine degrades.
				mustExecAll(t, e, "SET QUERY_TIMEOUT = 0")
				ffs.SetFree(0)
				if _, err := e.Execute("INSERT INTO people VALUES (99, 'refused')"); !errors.Is(err, ErrDegraded) {
					t.Fatalf("write under the hard watermark: %v, want ErrDegraded", err)
				}
				ffs.SetFree(-1)
			}
			return e, dir, want
		}

		// Map the protocol: fail each op in turn with a one-shot fault,
		// which leaves the engine usable, until the driver gets through.
		type step struct {
			phase string // "temp" (the checkpoint file) or "rotate" (the WAL)
			op    faultfs.Op
		}
		var steps []step
		e, _, _ := setup(t)
		for k := int64(1); ; k++ {
			ffs.Arm(k, syscall.EIO)
			err := d.run(e)
			if err == nil {
				break
			}
			var inj *faultfs.InjectedError
			if !errors.As(err, &inj) {
				t.Fatalf("%s with op %d failed: %v", d.name, k, err)
			}
			phase := "temp"
			if strings.Contains(err.Error(), "wal rotate") {
				phase = "rotate"
			}
			steps = append(steps, step{phase, inj.Op})
		}
		ffs.Calm()
		e.Close()

		past := map[faultfs.Op]string{faultfs.OpOpen: "created", faultfs.OpWrite: "written", faultfs.OpSync: "synced"}
		names := make([]string, len(steps))
		names[0] = "start"
		for k := 1; k < len(steps); k++ {
			prev := steps[k-1]
			switch {
			case prev.op == faultfs.OpRename:
				names[k] = "renamed" // the checkpoint is in place, the WAL not yet rotated
			case prev.op == faultfs.OpWrite && steps[k].op == faultfs.OpWrite:
				names[k] = prev.phase + "-partial"
			default:
				names[k] = prev.phase + "-" + past[prev.op]
			}
		}
		t.Logf("one %s makes %d eligible ops; cut after: %s", d.name, len(steps), strings.Join(names, ", "))
		rotateCuts := 0
		for _, s := range steps {
			if s.phase == "rotate" {
				rotateCuts++
			}
		}
		if len(steps) < 8 || rotateCuts == 0 {
			t.Fatalf("%s swept %d ops (%d in the WAL rotate), want >= 8 with the rotate among them", d.name, len(steps), rotateCuts)
		}
		for _, old := range []string{"temp-written", "temp-synced", "renamed"} {
			if !slices.Contains(names, old) {
				t.Fatalf("crash window %q not among the cuts %v", old, names)
			}
		}

		for k, s := range steps {
			t.Run(d.prefix+names[k], func(t *testing.T) {
				e, dir, want := setup(t)
				ffs.ArmCrash(int64(k + 1))
				err := d.run(e)
				var inj *faultfs.InjectedError
				if !errors.As(err, &inj) || inj.Op != s.op {
					t.Fatalf("cut at %s %s: %s err = %v", s.phase, s.op, d.name, err)
				}
				e.Kill()
				ffs.Calm()

				r, _ := openDur(t, dir, opts)
				defer r.Close()
				if got := stateSig(t, r); got != want {
					t.Fatalf("cut at %s %s lost state:\n got %s\nwant %s", s.phase, s.op, got, want)
				}
				if got := r.QueryTimeout(); got != opts.QueryTimeout {
					t.Fatalf("cut at %s %s: recovered QUERY_TIMEOUT %v, want the configured %v", s.phase, s.op, got, opts.QueryTimeout)
				}
			})
		}
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

// TestRecoveryRejectsForeignWAL feeds recovery logs it must refuse with
// typed corruption rather than silently rebuild a wrong database: a WAL
// whose records do not match the checkpoint (a fresh checkpoint against a
// WAL from a different history), and a CRC-valid record that fails on
// replay — every record in a log applied once, so one that fails means
// recovery diverged from what clients were acknowledged.
func TestRecoveryRejectsForeignWAL(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graft func(t *testing.T, dir string)
		want  string // in the error
	}{
		{"foreign log", func(t *testing.T, dir string) {
			dirA := t.TempDir()
			a, _ := openDur(t, dirA, Options{})
			mustExecAll(t, a, durSetup)
			seedRows(t, a, 4)
			a.Kill()

			b, _ := openDur(t, dir, Options{})
			mustExecAll(t, b, durSetup)
			seedRows(t, b, 2) // different allocation history
			mustExecAll(t, b, "DELETE FROM people WHERE id = 1")
			if err := b.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			b.Kill()

			// Graft A's WAL (full history) onto B's checkpoint.
			data, err := os.ReadFile(filepath.Join(dirA, walFile))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, walFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "divergence"},
		{"record that fails", func(t *testing.T, dir string) {
			a, _ := openDur(t, dir, Options{})
			mustExecAll(t, a, durSetup)
			seedRows(t, a, 2)
			people, _ := a.cat.Table("people")
			next, depth := people.AllocState()
			a.Kill()

			// A duplicate key, with the allocation pin it would carry.
			lg, _, err := wal.Open(filepath.Join(dir, walFile), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()
			if _, err := lg.Append(&wal.Record{SQL: "INSERT INTO people VALUES (1, 'dup')",
				Table: "people", NextSlot: uint64(next), FreeDepth: uint32(depth)}); err != nil {
				t.Fatal(err)
			}
		}, "record 7 failed on replay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.graft(t, dir)
			e, info, err := Open(Options{Durability: Durability{Dir: dir}})
			if !errors.Is(err, wal.ErrCorruptWAL) || !strings.Contains(err.Error(), tc.want) {
				if e != nil {
					e.Close()
				}
				t.Fatalf("recovery: %v (%s), want ErrCorruptWAL with %q", err, info, tc.want)
			}
		})
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

// TestCheckpointLoadThroughFS proves recovery reads the checkpoint through
// Durability.FS like every other durable byte: an injected open fault
// reaches it and is reported as a disk error naming the file, not as
// corruption, and a clean recovery opens exactly the checkpoint and the WAL.
func TestCheckpointLoadThroughFS(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)
	seedRows(t, e, 3)
	want := stateSig(t, e)
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}

	ffs := faultfs.NewFaulty(nil, 1)
	opts := Options{Durability: Durability{Dir: dir, FS: ffs}}
	ffs.Arm(1, syscall.EIO)
	_, _, err := Open(opts)
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), checkpointFile) || errors.Is(err, wal.ErrCorruptWAL) {
		t.Fatalf("Open with the checkpoint open failing: %v, want an EIO naming %s", err, checkpointFile)
	}

	opens := ffs.Count(faultfs.OpOpen)
	r, info := openDur(t, dir, opts)
	defer r.Close()
	if got := ffs.Count(faultfs.OpOpen) - opens; got != 2 {
		t.Fatalf("clean recovery made %d opens through the FS, want 2 (checkpoint, WAL)", got)
	}
	if !info.CheckpointLoaded {
		t.Fatalf("checkpoint not loaded: %+v", info)
	}
	if got := stateSig(t, r); got != want {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, want)
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
