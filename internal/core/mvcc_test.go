package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"grfusion/internal/exec"
	"grfusion/internal/sql"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// This file regression-tests the MVCC read path: expired readers abort
// before touching any state, stalled readers neither block writers nor
// observe their effects, pinned versions stay immutable under DML, and
// the read-only dispatch covers every statement kind the parser emits.

// TestExpiredReaderAbortsBeforePlanning is the read-path deadline
// regression test: a SELECT whose context is already dead when it pins
// must abort with the lifecycle error WITHOUT planning or opening any
// scan. DebugPanicTable is the tripwire — if the statement reached its
// scan, the injected panic would surface as ErrQueryPanic instead.
func TestExpiredReaderAbortsBeforePlanning(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE T (id BIGINT PRIMARY KEY, name VARCHAR)`)
	mustExec(t, e, `INSERT INTO T VALUES (1, 'a')`)

	exec.DebugPanicTable = "T"
	defer func() { exec.DebugPanicTable = "" }()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.ExecuteContext(ctx, `SELECT * FROM T`)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired-deadline SELECT: got %v, want ErrTimeout", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = e.ExecuteContext(ctx2, `SELECT * FROM T`)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled SELECT: got %v, want ErrCanceled", err)
	}

	// The prepared read path mirrors execStmt's check.
	exec.DebugPanicTable = ""
	p, err := e.Prepare(`SELECT * FROM T WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	exec.DebugPanicTable = "T"
	_, err = p.QueryContext(ctx, types.NewInt(1))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired-deadline prepared query: got %v, want ErrTimeout", err)
	}
}

// TestStalledReaderDoesNotBlockWriter is the MVCC acceptance test for the
// reader/writer stall bug: a reader blocked mid-scan must not prevent a
// writer from committing, and once released it must see the version it
// pinned — not the writer's effects.
func TestStalledReaderDoesNotBlockWriter(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE T (id BIGINT PRIMARY KEY, name VARCHAR)`)
	mustExec(t, e, `INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c')`)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	exec.DebugStallTable = "T"
	exec.DebugStall = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	defer func() { exec.DebugStallTable = ""; exec.DebugStall = nil }()

	type readResult struct {
		count int64
		err   error
	}
	reader := make(chan readResult, 1)
	go func() {
		r, err := e.Execute(`SELECT COUNT(*) FROM T`)
		if err != nil {
			reader <- readResult{err: err}
			return
		}
		reader <- readResult{count: r.Rows[0][0].I}
	}()
	<-entered // the reader pinned its version and is stalled inside its scan

	// The writer must commit while the reader is still stalled. Before
	// MVCC this deadlocked: the reader held the shared statement lock.
	writer := make(chan error, 1)
	go func() {
		_, err := e.Execute(`INSERT INTO T VALUES (4, 'd')`)
		writer <- err
	}()
	select {
	case err := <-writer:
		if err != nil {
			t.Fatalf("writer failed while reader stalled: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writer blocked behind a stalled reader")
	}

	// Release the reader: it must report the count of its pinned version.
	close(release)
	r := <-reader
	if r.err != nil {
		t.Fatalf("stalled reader failed: %v", r.err)
	}
	if r.count != 3 {
		t.Fatalf("stalled reader count = %d, want 3 (its pinned pre-insert version)", r.count)
	}

	// A fresh reader pins the post-insert version.
	if got := mustExec(t, e, `SELECT COUNT(*) FROM T`).Rows[0][0].I; got != 4 {
		t.Fatalf("fresh reader count = %d, want 4", got)
	}
}

// TestReadersFinishWhileWriterHoldsLock holds the engine's writer lock,
// as a writer stalled mid-statement would, and requires every read
// surface to finish anyway: none of them takes the lock.
func TestReadersFinishWhileWriterHoldsLock(t *testing.T) {
	e, _ := openDur(t, t.TempDir(), Options{Durability: Durability{Fsync: wal.FsyncOff}})
	defer e.Close()
	mustExecAll(t, e, `
		CREATE TABLE V (id BIGINT PRIMARY KEY);
		CREATE TABLE E (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
		INSERT INTO V VALUES (1), (2), (3);
		INSERT INTO E VALUES (10, 1, 2), (11, 2, 3);
		CREATE DIRECTED GRAPH VIEW G VERTEXES (ID = id) FROM V
			EDGES (ID = id, FROM = src, TO = dst) FROM E;`)
	prep, err := e.Prepare(`SELECT COUNT(*) FROM G.Paths PS WHERE PS.StartVertex.Id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	query := func(q string) func() error {
		return func() error { _, err := e.Execute(q); return err }
	}
	readers := []struct {
		name string
		run  func() error
	}{
		{"SELECT", query(`SELECT COUNT(*) FROM G.Paths PS WHERE PS.Length <= 2`)},
		{"EXPLAIN ANALYZE", query(`EXPLAIN ANALYZE SELECT COUNT(*) FROM G.Paths PS WHERE PS.StartVertex.Id = 1`)},
		{"SHOW METRICS", query(`SHOW METRICS`)},
		{"Prepared.Query", func() error { _, err := prep.Query(types.NewInt(1)); return err }},
		{"MetricsSnapshot", func() error { e.MetricsSnapshot(); return nil }},
		{"Health", func() error { e.Health(); return nil }},
		{"Durable", func() error {
			if !e.Durable() {
				return errors.New("durable engine reports not durable")
			}
			return nil
		}},
		{"WALFsyncPolicy", func() error {
			if p, ok := e.WALFsyncPolicy(); !ok || p != wal.FsyncOff {
				return fmt.Errorf("WALFsyncPolicy = %v, %v; want off, true", p, ok)
			}
			return nil
		}},
		{"GraphTopology", func() error { _, err := e.GraphTopology("G"); return err }},
		{"RebuildGraphView", func() error { _, err := e.RebuildGraphView("G"); return err }},
	}

	e.mu.Lock()
	defer e.mu.Unlock() // lets any reader that did block finish
	for _, r := range readers {
		done := make(chan error, 1)
		go func() { done <- r.run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", r.name, err)
			}
		case <-time.After(3 * time.Second):
			t.Errorf("%s blocked behind the writer lock", r.name)
		}
	}
}

// TestVersionedGraphViewPin pins a version, mutates the graph view's
// relational sources, and checks the pinned binding keeps the exact
// topology and rows it captured while the live topology advances.
func TestVersionedGraphViewPin(t *testing.T) {
	e := ladderEngine(t, 10, 0)
	st := e.pin()
	defer e.unpin(st)
	gv, ok := e.cat.GraphView("Ladder")
	if !ok {
		t.Fatal("missing graph view")
	}
	at := st.GraphView(gv)
	v0, e0 := at.Topo.NumVertices(), at.Topo.NumEdges()
	rows0 := st.Table(gv.VertexTable()).Len()
	seq0 := e.VersionSeq()

	mustExec(t, e, `INSERT INTO V VALUES (100, 'new')`)
	mustExec(t, e, `INSERT INTO E VALUES (9999, 0, 100, 1.5)`)

	if got := gv.Version().NumVertices(); got != v0+1 {
		t.Fatalf("live vertices = %d, want %d", got, v0+1)
	}
	if at.Topo.NumVertices() != v0 || at.Topo.NumEdges() != e0 {
		t.Fatalf("pinned topology moved: %d/%d, want %d/%d",
			at.Topo.NumVertices(), at.Topo.NumEdges(), v0, e0)
	}
	if got := st.Table(gv.VertexTable()).Len(); got != rows0 {
		t.Fatalf("pinned vertex rows = %d, want %d", got, rows0)
	}
	if got := e.VersionSeq(); got != seq0+2 {
		t.Fatalf("version seq = %d, want %d (one publish per statement)", got, seq0+2)
	}
	// The current version binds the advanced topology.
	cur := e.pin()
	defer e.unpin(cur)
	if got := cur.GraphView(gv).Topo.NumVertices(); got != v0+1 {
		t.Fatalf("current version vertices = %d, want %d", got, v0+1)
	}
}

// TestPreparedReplansAcrossVersions checks the per-version plan cache: a
// Prepared reuses its plan while the engine version is unchanged and
// replans (seeing new data) after a mutation.
func TestPreparedReplansAcrossVersions(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE T (id BIGINT PRIMARY KEY, name VARCHAR)`)
	mustExec(t, e, `INSERT INTO T VALUES (1, 'a')`)
	p, err := e.Prepare(`SELECT COUNT(*) FROM T WHERE id >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Query(types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 1 {
		t.Fatalf("count = %d, want 1", r.Rows[0][0].I)
	}
	mustExec(t, e, `INSERT INTO T VALUES (2, 'b')`)
	r, err = p.Query(types.NewInt(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 2 {
		t.Fatalf("post-insert count = %d, want 2 (prepared must replan against the new version)", r.Rows[0][0].I)
	}
}

// readOnlyCorpus is one parseable statement of every kind the parser
// emits, in dependency order. statementKinds below must list every
// sql.Statement implementation; the test enforces both sides.
var readOnlyCorpus = []string{
	`CREATE TABLE RO (id BIGINT PRIMARY KEY, name VARCHAR)`,
	`CREATE INDEX ro_name ON RO (name)`,
	`INSERT INTO RO VALUES (1, 'a'), (2, 'b')`,
	`UPDATE RO SET name = 'c' WHERE id = 1`,
	`DELETE FROM RO WHERE id = 2`,
	`SELECT * FROM RO`,
	`EXPLAIN SELECT * FROM RO`,
	`SHOW TABLES`,
	`SHOW METRICS`,
	`SHOW HEALTH`,
	`SHOW GRAPH VIEWS`,
	`SHOW MATERIALIZED VIEWS`,
	`SET QUERY_TIMEOUT = 0`,
	`CREATE TABLE ROV (vid BIGINT PRIMARY KEY, name VARCHAR)`,
	`CREATE TABLE ROE (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT)`,
	`CREATE DIRECTED GRAPH VIEW ROG
		VERTEXES(ID = vid, name = name) FROM ROV
		EDGES(ID = eid, FROM = src, TO = dst) FROM ROE`,
	`CREATE MATERIALIZED VIEW ROM AS SELECT * FROM RO`,
	`DROP MATERIALIZED VIEW ROM`,
	`DROP GRAPH VIEW ROG`,
	`TRUNCATE TABLE RO`,
	`DROP TABLE RO`,
}

// statementKinds is the closed set of parser statement types. Adding a
// statement kind without extending readOnlyCorpus (and, if it is
// read-only, the execStmt dispatch) fails TestReadOnlyDispatchComplete.
var statementKinds = []sql.Statement{
	(*sql.CreateTable)(nil), (*sql.CreateIndex)(nil), (*sql.DropTable)(nil),
	(*sql.TruncateTable)(nil), (*sql.Insert)(nil), (*sql.Update)(nil),
	(*sql.Delete)(nil), (*sql.Select)(nil), (*sql.CreateGraphView)(nil),
	(*sql.CreateMatView)(nil), (*sql.DropMatView)(nil),
	(*sql.DropGraphView)(nil), (*sql.Explain)(nil), (*sql.Show)(nil),
	(*sql.Set)(nil),
}

// TestReadOnlyDispatchComplete is the enforced invariant behind the
// "internal: unhandled read-only statement" path: every statement kind
// must route through readsOnly and the executor dispatch without
// hitting it, and the corpus must cover every statement type, so a new
// read-only kind cannot ship without a dispatch arm.
func TestReadOnlyDispatchComplete(t *testing.T) {
	e := New(Options{})
	seen := map[reflect.Type]bool{}
	for _, q := range readOnlyCorpus {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		seen[reflect.TypeOf(stmt)] = true
		ro := readsOnly(stmt)
		res, err := e.Execute(q)
		if err != nil {
			if strings.Contains(err.Error(), "unhandled read-only statement") {
				t.Fatalf("%q (ReadOnly=%v): executor dispatch is missing an arm: %v", q, ro, err)
			}
			t.Fatalf("%q: %v", q, err)
		}
		if res == nil {
			t.Fatalf("%q: nil result without error", q)
		}
	}
	for _, k := range statementKinds {
		if ty := reflect.TypeOf(k); !seen[ty] {
			t.Errorf("corpus has no statement of kind %v", ty)
		}
	}
	if len(seen) != len(statementKinds) {
		t.Errorf("corpus covers %d kinds, statementKinds lists %d — keep both in sync with the parser",
			len(seen), len(statementKinds))
	}
}

// TestMVCCMetricsSurface checks the lock/MVCC metrics are published under
// their SHOW METRICS keys and behave: versions are published per mutation,
// and the writer-side wait is the one lock key (readers take no lock).
func TestMVCCMetricsSurface(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE T (id BIGINT PRIMARY KEY)`)
	mustExec(t, e, `INSERT INTO T VALUES (1)`)
	mustExec(t, e, `SELECT * FROM T`)

	kv := map[string]int64{}
	for _, row := range mustExec(t, e, `SHOW METRICS`).Rows {
		kv[row[0].String()] = row[1].I
	}
	for _, name := range []string{"lock.write_wait_ns",
		"mvcc.published", "mvcc.versions_live", "mvcc.seq", "mvcc.pinned_readers"} {
		if _, ok := kv[name]; !ok {
			t.Errorf("SHOW METRICS missing %q", name)
		}
	}
	for _, name := range []string{"lock.read_wait_ns", "lock.wait_ns"} {
		if _, ok := kv[name]; ok {
			t.Errorf("SHOW METRICS publishes %s: readers take no lock", name)
		}
	}
	// New() publishes v1, then CREATE + INSERT publish one each.
	if kv["mvcc.published"] < 3 || kv["mvcc.seq"] < 3 {
		t.Errorf("mvcc.published=%d mvcc.seq=%d, want >= 3", kv["mvcc.published"], kv["mvcc.seq"])
	}
	if kv["mvcc.versions_live"] < 1 {
		t.Errorf("mvcc.versions_live = %d, want >= 1", kv["mvcc.versions_live"])
	}
	if got := kv["mvcc.pinned_readers"]; got != 1 {
		// SHOW METRICS itself holds the only pin while snapshotting.
		t.Errorf("mvcc.pinned_readers = %d, want 1", got)
	}
	if e.VersionSeq() != uint64(kv["mvcc.seq"]) {
		t.Errorf("VersionSeq=%d disagrees with mvcc.seq=%d", e.VersionSeq(), kv["mvcc.seq"])
	}
}

// TestVersionRegistryPrunes checks superseded, unpinned versions leave the
// live registry so the mvcc.versions_live gauge cannot grow unbounded.
func TestVersionRegistryPrunes(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE T (id BIGINT PRIMARY KEY)`)
	for i := 0; i < 50; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO T VALUES (%d)`, i))
	}
	e.mu.Lock()
	live := len(e.states)
	e.mu.Unlock()
	if live != 1 {
		t.Fatalf("versions live after quiesce = %d, want 1 (only the current version)", live)
	}

	// A pinned version is retained across publishes, then pruned.
	st := e.pin()
	mustExec(t, e, `INSERT INTO T VALUES (1000)`)
	e.mu.Lock()
	live = len(e.states)
	e.mu.Unlock()
	if live != 2 {
		t.Fatalf("versions live with one pinned reader = %d, want 2", live)
	}
	e.unpin(st)
	mustExec(t, e, `INSERT INTO T VALUES (1001)`)
	e.mu.Lock()
	live = len(e.states)
	e.mu.Unlock()
	if live != 1 {
		t.Fatalf("versions live after unpin+publish = %d, want 1", live)
	}
}
