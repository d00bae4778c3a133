package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"grfusion/internal/wal"
)

// matViewEngine sets up Users plus a materialized view of its lawyers.
func matViewEngine(t *testing.T) *Engine {
	t.Helper()
	e := socialEngine(t)
	mustExec(t, e, `CREATE MATERIALIZED VIEW Lawyers AS
		SELECT uid, lname AS name FROM Users WHERE job = 'Lawyer'`)
	return e
}

func TestMatViewInitialContents(t *testing.T) {
	e := matViewEngine(t)
	r := mustExec(t, e, `SELECT name FROM Lawyers ORDER BY name`)
	got := render(r)
	if len(got) != 2 || got[0][0] != "Jones" || got[1][0] != "Smith" {
		t.Fatalf("contents: %v", got)
	}
	if r.Columns[0] != "name" {
		t.Errorf("alias lost: %v", r.Columns)
	}
	// Star projection.
	mustExec(t, e, `CREATE MATERIALIZED VIEW AllUsers AS SELECT * FROM Users`)
	r = mustExec(t, e, `SELECT COUNT(*) FROM AllUsers`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("star view: %v", render(r))
	}
}

func TestMatViewIncrementalMaintenance(t *testing.T) {
	e := matViewEngine(t)
	count := func() int64 {
		return mustExec(t, e, `SELECT COUNT(*) FROM Lawyers`).Rows[0][0].I
	}
	if count() != 2 {
		t.Fatalf("initial: %d", count())
	}
	// Insert a matching row: enters the view.
	mustExec(t, e, `INSERT INTO Users VALUES (6, 'New', '1999', 'Lawyer')`)
	if count() != 3 {
		t.Fatalf("after insert: %d", count())
	}
	// Insert a non-matching row: ignored.
	mustExec(t, e, `INSERT INTO Users VALUES (7, 'Other', '1999', 'Chef')`)
	if count() != 3 {
		t.Fatalf("after non-matching insert: %d", count())
	}
	// Update a row out of the view.
	mustExec(t, e, `UPDATE Users SET job = 'Judge' WHERE uid = 1`)
	if count() != 2 {
		t.Fatalf("after leave-update: %d", count())
	}
	// Update a row into the view.
	mustExec(t, e, `UPDATE Users SET job = 'Lawyer' WHERE uid = 7`)
	if count() != 3 {
		t.Fatalf("after enter-update: %d", count())
	}
	// In-place update propagates projected values.
	mustExec(t, e, `UPDATE Users SET lname = 'Renamed' WHERE uid = 2`)
	r := mustExec(t, e, `SELECT COUNT(*) FROM Lawyers WHERE name = 'Renamed'`)
	if r.Rows[0][0].I != 1 {
		t.Fatalf("in-place update lost: %v", render(r))
	}
	// Delete removes from the view.
	mustExec(t, e, `DELETE FROM Users WHERE uid = 2`)
	if count() != 2 {
		t.Fatalf("after delete: %d", count())
	}
}

// The paper's scenario: a graph view whose vertex source is a materialized
// view (§2, §3.3.2). Base DML flows through the view into the topology in
// one transaction.
func TestGraphViewOverMatView(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE People (pid BIGINT PRIMARY KEY, name VARCHAR, active BOOLEAN);
		CREATE TABLE Knows (kid BIGINT PRIMARY KEY, a BIGINT, b BIGINT);
		INSERT INTO People VALUES (1,'a',true),(2,'b',true),(3,'c',false),(4,'d',true);
		INSERT INTO Knows VALUES (1,1,2),(2,2,4);
		CREATE MATERIALIZED VIEW ActivePeople AS SELECT pid, name FROM People WHERE active = true;
		CREATE DIRECTED GRAPH VIEW ActiveGraph
			VERTEXES(ID = pid, name = name) FROM ActivePeople
			EDGES(ID = kid, FROM = a, TO = b) FROM Knows;
	`)
	gv, _ := e.Catalog().GraphView("ActiveGraph")
	if gv.Version().NumVertices() != 3 {
		t.Fatalf("initial vertices: %d", gv.Version().NumVertices())
	}
	// A new active person becomes a vertex through the view chain.
	mustExec(t, e, `INSERT INTO People VALUES (5, 'e', true)`)
	if gv.Version().Vertex(5) == nil {
		t.Fatal("insert did not flow base -> matview -> topology")
	}
	// Deactivating a person removes the vertex (and would cascade edges).
	mustExec(t, e, `UPDATE People SET active = false WHERE pid = 5`)
	if gv.Version().Vertex(5) != nil {
		t.Fatal("leave-update did not remove the vertex")
	}
	// An inactive person inserted does not appear.
	mustExec(t, e, `INSERT INTO People VALUES (6, 'f', false)`)
	if gv.Version().Vertex(6) != nil {
		t.Fatal("inactive person entered the graph")
	}
	// Traversal works over the maintained chain.
	r := mustExec(t, e, `SELECT PS.PathString FROM ActiveGraph.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("traversal: %v", render(r))
	}
}

func TestMatViewAtomicityUnderRollback(t *testing.T) {
	e := matViewEngine(t)
	// The second row violates the Users primary key: both the base insert
	// and its view propagation must unwind.
	if _, err := e.Execute(`INSERT INTO Users VALUES (8, 'X', '1', 'Lawyer'), (1, 'Dup', '1', 'Lawyer')`); err == nil {
		t.Fatal("pk violation accepted")
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM Lawyers`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("view not rolled back: %v", render(r))
	}
	// And the mapping is consistent: re-inserting uid 8 works and shows up
	// exactly once.
	mustExec(t, e, `INSERT INTO Users VALUES (8, 'X', '1', 'Lawyer')`)
	r = mustExec(t, e, `SELECT COUNT(*) FROM Lawyers`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("after reinsert: %v", render(r))
	}
	mustExec(t, e, `DELETE FROM Users WHERE uid = 8`)
	r = mustExec(t, e, `SELECT COUNT(*) FROM Lawyers`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("after delete: %v", render(r))
	}
}

func TestMatViewReadOnlyAndDropRules(t *testing.T) {
	e := matViewEngine(t)
	for _, q := range []string{
		`INSERT INTO Lawyers VALUES (9, 'nope')`,
		`UPDATE Lawyers SET name = 'x'`,
		`DELETE FROM Lawyers`,
		`TRUNCATE TABLE Lawyers`,
		`DROP TABLE Lawyers`,
	} {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
	// The base table cannot be dropped or truncated while the view exists.
	mustExec(t, e, `DROP GRAPH VIEW SocialNetwork`)
	if _, err := e.Execute(`DROP TABLE Users`); err == nil {
		t.Error("dropped base of materialized view")
	}
	// A graph view over the matview pins it.
	mustScript(t, e, `
		CREATE TABLE Rel2 (rid BIGINT PRIMARY KEY, a BIGINT, b BIGINT);
		CREATE DIRECTED GRAPH VIEW LG VERTEXES(ID = uid) FROM Lawyers
			EDGES(ID = rid, FROM = a, TO = b) FROM Rel2;
	`)
	if _, err := e.Execute(`DROP MATERIALIZED VIEW Lawyers`); err == nil {
		t.Error("dropped matview with dependent graph view")
	}
	mustExec(t, e, `DROP GRAPH VIEW LG`)
	mustExec(t, e, `DROP MATERIALIZED VIEW Lawyers`)
	if _, err := e.Execute(`SELECT * FROM Lawyers`); err == nil {
		t.Error("matview still queryable after drop")
	}
}

func TestMatViewValidation(t *testing.T) {
	e := socialEngine(t)
	for _, q := range []string{
		`CREATE MATERIALIZED VIEW v AS SELECT uid + 1 FROM Users`,                // computed item
		`CREATE MATERIALIZED VIEW v AS SELECT ghost FROM Users`,                  // unknown column
		`CREATE MATERIALIZED VIEW v AS SELECT uid FROM Ghost`,                    // unknown base
		`CREATE MATERIALIZED VIEW v AS SELECT uid, uid FROM Users`,               // dup name
		`CREATE MATERIALIZED VIEW v AS SELECT uid FROM Users WHERE uid = ?`,      // param
		`CREATE MATERIALIZED VIEW v AS SELECT uid FROM Users WHERE COUNT(*) > 1`, // aggregate
	} {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

func TestMatViewSnapshotRoundTrip(t *testing.T) {
	e := matViewEngine(t)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{})
	if err := e2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	r := mustExec(t, e2, `SELECT COUNT(*) FROM Lawyers`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("restored view: %v", render(r))
	}
	// Maintenance still works after restore.
	mustExec(t, e2, `INSERT INTO Users VALUES (9, 'Z', '1', 'Lawyer')`)
	r = mustExec(t, e2, `SELECT COUNT(*) FROM Lawyers`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("restored maintenance: %v", render(r))
	}
}

// TestSnapshotRestoreRejectsNonMatViewDefinition feeds Restore and Open a
// snapshot whose materialized-view entry parses as another statement: both
// must fail with an error, and Open's must be ErrCorruptWAL, not a panic.
func TestSnapshotRestoreRejectsNonMatViewDefinition(t *testing.T) {
	var buf bytes.Buffer
	cw := wal.NewCheckpointWriter(&buf, 0, func(h *wal.Fields) {
		h.Uint(0) // tables
		h.Uint(1) // materialized views
		h.Str("SELECT 1")
		h.Uint(0) // graph views
	})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := New(Options{}).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Restore accepted a SELECT as a materialized view definition")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Durability: Durability{Dir: dir}}); !errors.Is(err, wal.ErrCorruptWAL) {
		t.Fatalf("Open on the same checkpoint: %v, want ErrCorruptWAL", err)
	}
}

func TestShowMaterializedViews(t *testing.T) {
	e := matViewEngine(t)
	r := mustExec(t, e, `SHOW MATERIALIZED VIEWS`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "Lawyers" {
		t.Fatalf("show: %v", render(r))
	}
	// The backing table also appears in SHOW TABLES (it is queryable).
	r = mustExec(t, e, `SHOW TABLES`)
	found := false
	for _, row := range r.Rows {
		if strings.EqualFold(row[0].S, "Lawyers") {
			found = true
		}
	}
	if !found {
		t.Error("matview table missing from SHOW TABLES")
	}
}

func TestExplainStatement(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `EXPLAIN SELECT lname FROM Users WHERE uid = 1`)
	if len(r.Rows) == 0 || r.Columns[0] != "plan" {
		t.Fatalf("explain rows: %v", render(r))
	}
	text := ""
	for _, row := range r.Rows {
		text += row[0].S + "\n"
	}
	if !strings.Contains(text, "Scan") {
		t.Errorf("plan text: %s", text)
	}
	if _, err := e.Execute(`EXPLAIN DELETE FROM Users`); err == nil {
		t.Error("EXPLAIN DML accepted")
	}
}

// TestExplainShowsDistinct: a DISTINCT aggregate and a plain one are
// different plans, so EXPLAIN prints them differently.
func TestExplainShowsDistinct(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `CREATE TABLE v (id BIGINT PRIMARY KEY, g BIGINT);
		INSERT INTO v VALUES (1, 7), (2, 7), (3, 8)`)
	distinct := planText(mustExec(t, e, `EXPLAIN SELECT COUNT(DISTINCT v.g) FROM v`))
	plain := planText(mustExec(t, e, `EXPLAIN SELECT COUNT(v.g) FROM v`))
	if distinct == plain {
		t.Fatalf("COUNT(DISTINCT v.g) and COUNT(v.g) print the same plan:\n%s", plain)
	}
	if !strings.Contains(distinct, "HashAggregate COUNT(DISTINCT v.g)") {
		t.Fatalf("EXPLAIN of COUNT(DISTINCT v.g):\n%s", distinct)
	}
	if got := mustExec(t, e, `SELECT COUNT(DISTINCT v.g) FROM v`); got.Rows[0][0].I != 2 {
		t.Fatalf("COUNT(DISTINCT v.g) = %v, want 2", got.Rows[0][0])
	}
}
