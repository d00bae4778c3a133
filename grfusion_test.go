package grfusion

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

func openSocial(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{})
	if err := db.ExecScript(`
		CREATE TABLE Users (uid BIGINT PRIMARY KEY, name VARCHAR, job VARCHAR);
		CREATE TABLE Friends (fid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, since BIGINT);
		INSERT INTO Users VALUES (1,'ann','Lawyer'),(2,'bob','Doctor'),(3,'cady','Engineer');
		INSERT INTO Friends VALUES (10,1,2,2001),(11,2,3,2010);
		CREATE UNDIRECTED GRAPH VIEW Social
			VERTEXES(ID = uid, name = name, job = job) FROM Users
			EDGES(ID = fid, FROM = a, TO = b, since = since) FROM Friends;
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestExecAndQuery(t *testing.T) {
	db := openSocial(t)
	res, err := db.Query(`SELECT name FROM Users WHERE job = 'Lawyer'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "ann" {
		t.Fatalf("rows: %v", res.Rows)
	}
	// Query on a non-query statement errors.
	if _, err := db.Query(`INSERT INTO Users VALUES (9,'x','y')`); err == nil {
		t.Error("Query accepted DML")
	}
	// Exec reports affected rows.
	r, err := db.Exec(`DELETE FROM Users WHERE uid = 9`)
	if err != nil || r.Affected != 1 {
		t.Fatalf("affected: %+v, %v", r, err)
	}
}

func TestQueryScalar(t *testing.T) {
	db := openSocial(t)
	v, err := db.QueryScalar(`SELECT COUNT(*) FROM Users`)
	if err != nil || v.I != 3 {
		t.Fatalf("scalar: %v %v", v, err)
	}
	if _, err := db.QueryScalar(`SELECT uid FROM Users`); err == nil {
		t.Error("multi-row scalar accepted")
	}
}

func TestMustExecPanics(t *testing.T) {
	db := openSocial(t)
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic on bad SQL")
		}
	}()
	db.MustExec(`SELEC nonsense`)
}

func TestCrossModelQueryThroughPublicAPI(t *testing.T) {
	db := openSocial(t)
	res, err := db.Query(`
		SELECT PS.EndVertex.name FROM Users U, Social.Paths PS
		WHERE U.name = 'ann' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "cady" {
		t.Fatalf("fof: %v", res.Rows)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := openSocial(t)
	stmt, err := db.Prepare(`
		SELECT PS.PathString FROM Social.Paths PS
		WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.NumParams() != 2 {
		t.Fatalf("nparams: %d", stmt.NumParams())
	}
	res, err := stmt.Query(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0].S, "->") {
		t.Fatalf("prepared result: %v", res.Rows)
	}
	// Re-execution with different parameters reuses the plan.
	res, err = stmt.Query(3, 1)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("re-exec: %v %v", res, err)
	}
	// Wrong arity and wrong types error cleanly.
	if _, err := stmt.Query(1); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := stmt.Query(1, struct{}{}); err == nil {
		t.Error("bad type accepted")
	}
	// Prepare rejects DML.
	if _, err := db.Prepare(`DELETE FROM Users`); err == nil {
		t.Error("prepared DML accepted")
	}
}

func TestPreparedWithRelationalParams(t *testing.T) {
	db := openSocial(t)
	db.MustExec(`CREATE INDEX ix_job ON Users (job)`)
	stmt, err := db.Prepare(`SELECT name FROM Users WHERE job = ? ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stmt.Query("Doctor")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
		t.Fatalf("param query: %v %v", res, err)
	}
	res, err = stmt.Query("Lawyer")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "ann" {
		t.Fatalf("param re-query: %v %v", res, err)
	}
}

func TestToValueConversions(t *testing.T) {
	cases := []struct {
		in   any
		kind Kind
	}{
		{nil, KindNull}, {true, KindBool}, {int(1), KindInt}, {int32(1), KindInt},
		{int64(1), KindInt}, {float32(1), KindFloat}, {float64(1), KindFloat},
		{"x", KindString},
	}
	for _, c := range cases {
		v, err := ToValue(c.in)
		if err != nil || v.Kind != c.kind {
			t.Errorf("ToValue(%T) = %v kind %v, err %v", c.in, v, v.Kind, err)
		}
	}
	if _, err := ToValue([]int{1}); err == nil {
		t.Error("slice accepted")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	db := openSocial(t)
	var buf bytes.Buffer
	if err := db.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := Open(Config{})
	if err := db2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// Data, topology, and traversability all survive.
	v, err := db2.QueryScalar(`SELECT COUNT(*) FROM Friends`)
	if err != nil || v.I != 2 {
		t.Fatalf("restored rows: %v %v", v, err)
	}
	res, err := db2.Query(`
		SELECT PS.PathString FROM Social.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 3 LIMIT 1`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("restored traversal: %v %v", res, err)
	}
	// Updates still maintain the restored view.
	db2.MustExec(`DELETE FROM Friends WHERE fid = 11`)
	res, _ = db2.Query(`
		SELECT PS.PathString FROM Social.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 3 LIMIT 1`)
	if len(res.Rows) != 0 {
		t.Fatal("restored view not maintained")
	}
	// Restore into a non-empty database fails.
	var buf2 bytes.Buffer
	if err := db.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := db2.Restore(&buf2); err == nil {
		t.Error("restore into non-empty db accepted")
	}
}

func TestExplainPublicAPI(t *testing.T) {
	db := openSocial(t)
	text, err := db.Explain(`SELECT name FROM Users WHERE uid = 1`)
	if err != nil || !strings.Contains(text, "Scan") {
		t.Fatalf("explain: %q %v", text, err)
	}
	if _, err := db.Explain(`DELETE FROM Users`); err == nil {
		t.Error("explain of DML accepted")
	}
}

func TestMemLimitConfig(t *testing.T) {
	db := Open(Config{MemLimit: 64})
	db.MustExec(`CREATE TABLE T (a BIGINT PRIMARY KEY, s VARCHAR)`)
	db.MustExec(`INSERT INTO T VALUES (1,'aaaaaaaaaaaaaaaa'),(2,'bbbbbbbbbbbbbbbb')`)
	if _, err := db.Query(`SELECT COUNT(*) FROM T A, T B`); err == nil {
		t.Error("memory limit ignored")
	}
}

func TestConfigDisablePushdownStillCorrect(t *testing.T) {
	run := func(cfg Config, q string) string {
		db := Open(cfg)
		if err := db.ExecScript(`
			CREATE TABLE N (nid BIGINT PRIMARY KEY);
			CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, w BIGINT);
			INSERT INTO N VALUES (1),(2),(3),(4);
			INSERT INTO E VALUES (1,1,2,5),(2,2,3,50),(3,3,4,5),(4,1,3,5);
			CREATE DIRECTED GRAPH VIEW G VERTEXES(ID=nid) FROM N
				EDGES(ID=eid, FROM=a, TO=b, w=w) FROM E;
		`); err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rows := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			rows[i] = fmt.Sprint(r)
		}
		sort.Strings(rows) // BFS and DFS emit in different orders
		return strings.Join(rows, " ")
	}
	// Each query reads one resolved attribute reference. Pushed, the
	// traversal reads it; with pushdown off, the residual filter above the
	// scan does (per-path scans keep their element filters residual); a
	// forced BFS reads it in another kernel. All three must agree. hint
	// fills the query's %s; bfs, when set, replaces the forced-BFS query.
	for _, tc := range []struct{ name, q, hint, bfs string }{
		{name: "edge filter", hint: "",
			q: `SELECT COUNT(P) FROM G.Paths P %s WHERE P.StartVertex.Id = 1 AND P.Edges[0..*].w < 10`},
		{name: "FanOut vertex filter", hint: "ALLPATHS",
			q: `SELECT P.PathString FROM G.Paths P %s WHERE P.StartVertex.Id = 1 AND P.Vertexes[0..*].FanOut >= 1`},
		{name: "SUM bound", hint: "",
			q: `SELECT P.PathString, SUM(P.Edges.w) FROM G.Paths P %s WHERE P.StartVertex.Id = 1 AND SUM(P.Edges.w) < 12`},
		{name: "SUM bound, all paths", hint: "ALLPATHS",
			q: `SELECT P.PathString, SUM(P.Edges.w) FROM G.Paths P %s WHERE P.StartVertex.Id = 1 AND SUM(P.Edges.w) < 12`},
		{name: "SHORTESTPATH weight",
			q: `SELECT TOP 2 P.PathString, SUM(P.Edges.w) FROM G.Paths P HINT(SHORTESTPATH(w))
				WHERE P.StartVertex.Id = 1 AND P.EndVertex.Id = 4`,
			bfs: `SELECT P.PathString, SUM(P.Edges.w) AS s FROM G.Paths P HINT(BFS, ALLPATHS)
				WHERE P.StartVertex.Id = 1 AND P.EndVertex.Id = 4 ORDER BY s LIMIT 2`},
	} {
		with := func(hints ...string) string {
			if !strings.Contains(tc.q, "%s") {
				return tc.q
			}
			var hs []string
			for _, h := range append(hints, tc.hint) {
				if h != "" {
					hs = append(hs, h)
				}
			}
			if len(hs) == 0 {
				return fmt.Sprintf(tc.q, "")
			}
			return fmt.Sprintf(tc.q, "HINT("+strings.Join(hs, ", ")+")")
		}
		bfs := tc.bfs
		if bfs == "" {
			bfs = with("BFS")
		}
		on := run(Config{}, with())
		off := run(Config{DisablePushdown: true}, with())
		forced := run(Config{}, bfs)
		if on != off || on != forced || on == "" {
			t.Errorf("%s: pushdown on %s, off %s, BFS %s", tc.name, on, off, forced)
		}
	}
}

// TestHealthPublicAPI pins the durability-health surface of the public
// API: a non-durable database reports healthy/non-durable, and a durable
// one exposes the state and the ErrDegraded re-export matches what the
// engine returns for writes rejected in degraded mode.
func TestHealthPublicAPI(t *testing.T) {
	db := Open(Config{})
	h := db.Health()
	if h.State != StateHealthy || h.Durable {
		t.Fatalf("in-memory health = %+v, want healthy and non-durable", h)
	}

	dur, _, err := OpenDurable(Config{WALDir: t.TempDir(), WALFsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	h = dur.Health()
	if h.State != StateHealthy || !h.Durable {
		t.Fatalf("durable health = %+v, want healthy and durable", h)
	}
	if _, err := dur.Exec(`SHOW HEALTH`); err != nil {
		t.Fatalf("SHOW HEALTH: %v", err)
	}
}
