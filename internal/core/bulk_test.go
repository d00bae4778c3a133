package core

import (
	"strings"
	"testing"
	"time"

	"grfusion/internal/types"
)

// bulkRows builds n (id, src, dst, w) edge rows with ids starting at base,
// endpoints cycling over nv vertices.
func bulkEdgeRows(base, n, nv int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(base + i)),
			types.NewInt(int64(i % nv)),
			types.NewInt(int64((i*7 + 1) % nv)),
			types.NewInt(int64(i)),
		}
	}
	return rows
}

func bulkVertexRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("v")}
	}
	return rows
}

// TestBulkLoadBasic loads vertices and edges through BulkLoad into a
// schema with a graph view and checks the result matches row-at-a-time
// INSERTs: relational contents, live topology vs from-scratch rebuild,
// and — the point of the API — exactly ONE published version per load no
// matter how many batches streamed in.
func TestBulkLoadBasic(t *testing.T) {
	e := New(Options{})
	mustExecAll(t, e, durSetup)

	before := e.Metrics().MVCCPublished.Value()
	bl, err := e.BeginBulk("people", nil, 50)
	if err != nil {
		t.Fatal(err)
	}
	people := bulkVertexRows(50)
	for i := 0; i < 50; i += 10 { // 5 batches
		if _, err := bl.Append(people[i : i+10]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := bl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 50 {
		t.Fatalf("Affected = %d, want 50", res.Affected)
	}
	if got := e.Metrics().MVCCPublished.Value() - before; got != 1 {
		t.Fatalf("people load published %d versions, want 1", got)
	}

	before = e.Metrics().MVCCPublished.Value()
	bl, err = e.BeginBulk("knows", []string{"id", "src", "dst", "w"}, 200)
	if err != nil {
		t.Fatal(err)
	}
	edges := bulkEdgeRows(1000, 200, 50)
	for i := 0; i < 200; i += 64 {
		end := i + 64
		if end > 200 {
			end = 200
		}
		if _, err := bl.Append(edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if bl.Rows() != 200 {
		t.Fatalf("Rows() = %d, want 200", bl.Rows())
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().MVCCPublished.Value() - before; got != 1 {
		t.Fatalf("edge load published %d versions, want 1", got)
	}

	// Graph view maintained incrementally == from-scratch rebuild, and a
	// traversal sees the loaded edges.
	_ = stateSig(t, e)
	res, err = e.Execute("SELECT COUNT(*) FROM knows")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 200 {
		t.Fatalf("knows count = %v, want 200", res.Rows[0][0])
	}
	if m := e.Metrics(); m.BulkLoads.Value() != 2 || m.BulkRows.Value() != 250 {
		t.Fatalf("bulk counters: loads=%d rows=%d, want 2/250",
			m.BulkLoads.Value(), m.BulkRows.Value())
	}
}

// TestBulkLoadColumnMapping loads with a reordered column subset and
// checks unlisted columns default to NULL and values land in the right
// columns, same as the equivalent INSERT.
func TestBulkLoadColumnMapping(t *testing.T) {
	e := New(Options{})
	mustExecAll(t, e, `CREATE TABLE p (id BIGINT, name VARCHAR, age BIGINT, PRIMARY KEY (id));`)
	bl, err := e.BeginBulk("p", []string{"name", "id"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append([]types.Row{
		{types.NewString("ada"), types.NewInt(1)},
		{types.NewString("bob"), types.NewInt(2)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("INSERT INTO p (name, id) VALUES ('eve', 3)"); err != nil {
		t.Fatal(err)
	}
	got := querySig(t, e, "SELECT id, name, age FROM p")
	if !strings.Contains(got, "1|ada|NULL") || !strings.Contains(got, "2|bob|NULL") {
		t.Fatalf("mapped load wrong: %s", got)
	}
}

// TestBulkLoadBatchAtomicity checks a failing batch (duplicate primary
// key) rolls back wholly — including rows earlier in the same batch —
// while earlier batches stay, and the load remains usable afterwards.
func TestBulkLoadBatchAtomicity(t *testing.T) {
	e := New(Options{})
	mustExecAll(t, e, durSetup)
	bl, err := e.BeginBulk("people", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append([]types.Row{
		{types.NewInt(1), types.NewString("a")},
		{types.NewInt(2), types.NewString("b")},
	}); err != nil {
		t.Fatal(err)
	}
	// Bad batch: row 3 is fine, row 2 is a duplicate — both must vanish.
	_, err = bl.Append([]types.Row{
		{types.NewInt(3), types.NewString("c")},
		{types.NewInt(2), types.NewString("dup")},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("want duplicate-key error, got %v", err)
	}
	// Load still usable; id 3 is free again.
	if _, err := bl.Append([]types.Row{{types.NewInt(3), types.NewString("c2")}}); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}
	res, err := bl.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 3 {
		t.Fatalf("Affected = %d, want 3", res.Affected)
	}
	got := querySig(t, e, "SELECT id, name FROM people")
	if !strings.Contains(got, "3|c2") || strings.Contains(got, "dup") {
		t.Fatalf("batch rollback leaked rows: %s", got)
	}
}

// TestBulkLoadErrors covers the rejection paths: unknown table,
// materialized-view table, wrong row width, and use-after-Close.
func TestBulkLoadErrors(t *testing.T) {
	e := New(Options{})
	mustExecAll(t, e, `
		CREATE TABLE u (id BIGINT, PRIMARY KEY (id));
		CREATE MATERIALIZED VIEW mu AS SELECT id FROM u;`)
	if _, err := e.BeginBulk("nosuch", nil, 0); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := e.BeginBulk("mu", nil, 0); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("matview load: %v", err)
	}
	if _, err := e.BeginBulk("u", []string{"nope"}, 0); err == nil {
		t.Fatal("unknown column accepted")
	}
	bl, err := e.BeginBulk("u", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append([]types.Row{{types.NewInt(1), types.NewInt(2)}}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append([]types.Row{{types.NewInt(1)}}); err == nil {
		t.Fatal("append after close accepted")
	}
	if _, err := bl.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	// The lock was released: a normal statement must run.
	if _, err := e.Execute("INSERT INTO u VALUES (9)"); err != nil {
		t.Fatalf("engine locked after close: %v", err)
	}
}

// TestBulkLoadReadersUnblocked checks MVCC readers keep serving the
// pre-load version while the load holds the write lock mid-stream.
func TestBulkLoadReadersUnblocked(t *testing.T) {
	e := New(Options{})
	mustExecAll(t, e, durSetup)
	if _, err := e.Execute("INSERT INTO people VALUES (100, 'pre')"); err != nil {
		t.Fatal(err)
	}
	bl, err := e.BeginBulk("people", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append(bulkVertexRows(10)); err != nil {
		t.Fatal(err)
	}
	// Mid-load, with the write lock held, a reader must complete and see
	// only the pre-load row.
	done := make(chan error, 1)
	var n int64
	go func() {
		res, err := e.Execute("SELECT COUNT(*) FROM people")
		if err == nil {
			n = res.Rows[0][0].I
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader blocked behind bulk load")
	}
	if n != 1 {
		t.Fatalf("mid-load reader saw %d rows, want 1 (pre-load version)", n)
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT COUNT(*) FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 11 {
		t.Fatalf("post-load count = %d, want 11", res.Rows[0][0].I)
	}
}

// TestBulkLoadDurableReplay kills the engine after a bulk load and checks
// recovery reconstructs the identical state from the per-batch WAL
// records (each replayed through the prepared-DML path).
func TestBulkLoadDurableReplay(t *testing.T) {
	dir := t.TempDir()
	e, _ := openDur(t, dir, Options{})
	mustExecAll(t, e, durSetup)

	bl, err := e.BeginBulk("people", nil, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Append(bulkVertexRows(30)); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	bl, err = e.BeginBulk("knows", []string{"id", "src", "dst", "w"}, 90)
	if err != nil {
		t.Fatal(err)
	}
	edges := bulkEdgeRows(500, 90, 30)
	for i := 0; i < 90; i += 40 {
		end := i + 40
		if end > 90 {
			end = 90
		}
		if _, err := bl.Append(edges[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// A failed batch mid-load must leave no WAL record behind.
	if _, err := bl.Append([]types.Row{{
		types.NewInt(500), types.NewInt(0), types.NewInt(1), types.NewInt(0)}}); err == nil {
		t.Fatal("duplicate edge id accepted")
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	want := stateSig(t, e)
	e.Kill()

	e2, info := openDur(t, dir, Options{})
	defer e2.Kill()
	if info.Replayed == 0 {
		t.Fatal("recovery replayed no WAL records")
	}
	if got := stateSig(t, e2); got != want {
		t.Fatalf("recovered state diverges:\nwant %s\ngot  %s", want, got)
	}
	// Replay runs the statement path, so every replayed record is counted
	// by kind whether it was logged with parameters (the 4 applied
	// batches) or as plain text (the 3 set-up statements).
	if got := metricValue(e2, "statements.insert"); got != 4 {
		t.Errorf("statements.insert after replay = %d, want 4", got)
	}
	if got := metricValue(e2, "statements.ddl"); got != 3 {
		t.Errorf("statements.ddl after replay = %d, want 3", got)
	}
}
