package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"grfusion/internal/exec"
	"grfusion/internal/types"
)

func TestPrepareAndReuse(t *testing.T) {
	e := socialEngine(t)
	p, err := e.Prepare(`SELECT lname FROM Users WHERE uid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 1 || len(p.Columns()) != 1 || p.Columns()[0] != "lname" {
		t.Fatalf("meta: %d params, cols %v", p.NumParams(), p.Columns())
	}
	for uid, want := range map[int64]string{1: "Smith", 2: "Jones", 5: "Quinn"} {
		r, err := p.Query(types.NewInt(uid))
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 1 || r.Rows[0][0].S != want {
			t.Errorf("uid %d: %v", uid, render(r))
		}
	}
	if _, err := p.Query(); err == nil {
		t.Error("missing params accepted")
	}
	if _, err := p.Query(types.NewInt(1), types.NewInt(2)); err == nil {
		t.Error("extra params accepted")
	}
	// Every `?` counts wherever it sits, an analytics table function's
	// argument included.
	for q, args := range map[string][]types.Value{
		`SELECT ?, lname FROM Users WHERE uid = ? ORDER BY lname`: {types.NewInt(7), types.NewInt(1)},
		`SELECT * FROM SocialNetwork.PAGERANK(?, 20)`:             {types.NewFloat(0.85)},
		`SELECT * FROM SocialNetwork.PAGERANK(?, ?) WHERE ID = ?`: {types.NewFloat(0.85), types.NewInt(20), types.NewInt(3)},
	} {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumParams() != len(args) {
			t.Errorf("%s: %d params, want %d", q, p.NumParams(), len(args))
		}
		if r, err := p.Query(args...); err != nil {
			t.Errorf("%s: %v", q, err)
		} else if len(r.Rows) == 0 {
			t.Errorf("%s: no rows", q)
		}
	}
}

func TestPreparePathQueryWithParams(t *testing.T) {
	e := socialEngine(t)
	p, err := e.Prepare(`
		SELECT PS.PathString FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?
		  AND PS.Edges[0..*].sdate > ?
		LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 3 {
		t.Fatalf("params: %d", p.NumParams())
	}
	r, err := p.Query(types.NewInt(1), types.NewInt(5), types.NewString("1990"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 {
		t.Fatalf("reachability: %v", render(r))
	}
	// Restrictive date parameter breaks the path (edge 12 is from 1999).
	r, err = p.Query(types.NewInt(1), types.NewInt(5), types.NewString("2002-06-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Fatalf("filtered reachability should be empty: %v", render(r))
	}
	// Parameterized start that does not exist: no rows, no error.
	r, err = p.Query(types.NewInt(999), types.NewInt(5), types.NewString("1990"))
	if err != nil || len(r.Rows) != 0 {
		t.Fatalf("missing start: %v %v", render(r), err)
	}
}

func TestPrepareSeesLiveData(t *testing.T) {
	e := socialEngine(t)
	p, err := e.Prepare(`SELECT COUNT(*) FROM Users WHERE job = ?`)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := p.Query(types.NewString("Lawyer"))
	if r.Rows[0][0].I != 2 {
		t.Fatalf("initial: %v", render(r))
	}
	mustExec(t, e, `INSERT INTO Users VALUES (6, 'New', '2000', 'Lawyer')`)
	r, _ = p.Query(types.NewString("Lawyer"))
	if r.Rows[0][0].I != 3 {
		t.Fatalf("prepared plan did not see the insert: %v", render(r))
	}
}

func TestPrepareRejectsNonSelect(t *testing.T) {
	e := socialEngine(t)
	if _, err := e.Prepare(`DELETE FROM Users`); err == nil {
		t.Error("prepared DML accepted")
	}
	if _, err := e.Prepare(`SELECT * FROM Ghost`); err == nil {
		t.Error("bad plan accepted")
	}
}

func TestSnapshotRestoreEngine(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `CREATE INDEX ix_job ON Users (job)`)
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{})
	if err := e2.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	// Tables, rows, and graph-view topology all present.
	r := mustExec(t, e2, `SELECT COUNT(*) FROM Users`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("restored users: %v", render(r))
	}
	gv, ok := e2.Catalog().GraphView("SocialNetwork")
	if !ok || gv.Version().NumVertices() != 5 || gv.Version().NumEdges() != 5 {
		t.Fatalf("restored topology: %v", gv)
	}
	// The restored index is live (plans use it).
	txt, err := e2.Explain(`SELECT lname FROM Users WHERE job = 'Lawyer'`)
	if err != nil || !contains(txt, "IndexScan") {
		t.Fatalf("restored index unused: %q %v", txt, err)
	}
	// Restore into a non-empty engine fails.
	var buf2 bytes.Buffer
	if err := e.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := e2.Restore(&buf2); err == nil {
		t.Error("restore into non-empty engine accepted")
	}
	// Garbage input fails cleanly.
	if err := New(Options{}).Restore(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage restore accepted")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}

func TestPrepareDML(t *testing.T) {
	e := socialEngine(t)
	ins, err := e.PrepareDML(`INSERT INTO Users VALUES (?, ?, '2000', ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 3 {
		t.Fatalf("nparams: %d", ins.NumParams())
	}
	for i := int64(10); i < 13; i++ {
		if _, err := ins.Exec(types.NewInt(i), types.NewString("p"), types.NewString("Chef")); err != nil {
			t.Fatal(err)
		}
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM Users WHERE job = 'Chef'`)
	if r.Rows[0][0].I != 3 {
		t.Fatalf("inserted: %v", render(r))
	}
	// Prepared insert maintains graph views too.
	gv, _ := e.Catalog().GraphView("SocialNetwork")
	if gv.Version().Vertex(11) == nil {
		t.Fatal("prepared insert skipped view maintenance")
	}
	upd, err := e.PrepareDML(`UPDATE Users SET job = ? WHERE uid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := upd.Exec(types.NewString("Cook"), types.NewInt(10)); err != nil {
		t.Fatal(err)
	}
	r = mustExec(t, e, `SELECT job FROM Users WHERE uid = 10`)
	if r.Rows[0][0].S != "Cook" {
		t.Fatalf("update: %v", render(r))
	}
	del, err := e.PrepareDML(`DELETE FROM Users WHERE uid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := del.Exec(types.NewInt(12))
	if err != nil || res.Affected != 1 {
		t.Fatalf("delete: %+v %v", res, err)
	}
	if gv.Version().Vertex(12) != nil {
		t.Fatal("prepared delete skipped view maintenance")
	}
	// Arity enforcement and statement-kind rejection.
	if _, err := del.Exec(); err == nil {
		t.Error("missing params accepted")
	}
	if _, err := e.PrepareDML(`SELECT 1 FROM Users`); err == nil {
		t.Error("SELECT accepted by PrepareDML")
	}
	if _, err := e.PrepareDML(`CREATE TABLE x (a BIGINT)`); err == nil {
		t.Error("DDL accepted by PrepareDML")
	}
}

// preparedPlan renders the plan p holds as it runs on the current version.
func preparedPlan(t *testing.T, e *Engine, p *Prepared) string {
	t.Helper()
	st := e.pin()
	defer e.unpin(st)
	op, err := p.planOn(st)
	if err != nil {
		t.Fatal(err)
	}
	return exec.Explain(e.execContext(context.Background(), st, nil), op)
}

// TestPreparedSharedAcrossVersions: four goroutines share one prepared
// COUNT(*) and one prepared path count while a writer inserts rows and
// edges. Every answer is the count of some published version, no
// goroutine's answers ever decrease, and the writes leave both plans in
// place: a plan holds no version.
func TestPreparedSharedAcrossVersions(t *testing.T) {
	const steps = 60
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE T (id BIGINT PRIMARY KEY);
		CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
		INSERT INTO V VALUES (0);
		CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
			EDGES(ID = eid, FROM = src, TO = dst) FROM E;
	`)
	rows, err := e.Prepare(`SELECT COUNT(*) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := e.Prepare(`SELECT COUNT(*) FROM G.Paths PS WHERE PS.StartVertex.Id = ? AND PS.Length = 1`)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*catalogPlan{rows.plan.Load(), paths.plan.Load()}

	var wg sync.WaitGroup
	var written atomic.Bool
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastRows, lastPaths int64
			for i := 0; i < 20 || !written.Load(); i++ {
				r, err := rows.Query()
				if err != nil {
					errs <- err
					return
				}
				p, err := paths.Query(types.NewInt(0))
				if err != nil {
					errs <- err
					return
				}
				nr, np := r.Rows[0][0].I, p.Rows[0][0].I
				if nr < lastRows || np < lastPaths || nr > steps || np > steps {
					errs <- fmt.Errorf("answers %d rows, %d paths after %d, %d: not the counts of a later version",
						nr, np, lastRows, lastPaths)
					return
				}
				lastRows, lastPaths = nr, np
			}
		}()
	}
	for k := 1; k <= steps; k++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO T VALUES (%d)`, k))
		mustExec(t, e, fmt.Sprintf(`INSERT INTO V VALUES (%d)`, k))
		mustExec(t, e, fmt.Sprintf(`INSERT INTO E VALUES (%d, 0, %d)`, k, k))
	}
	written.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r, err := rows.Query(); err != nil || r.Rows[0][0].I != steps {
		t.Fatalf("final row count %v (%v), want %d", r, err, steps)
	}
	if p, err := paths.Query(types.NewInt(0)); err != nil || p.Rows[0][0].I != steps {
		t.Fatalf("final path count %v (%v), want %d", p, err, steps)
	}
	if rows.plan.Load() != plans[0] || paths.plan.Load() != plans[1] {
		t.Fatal("a write to the data replanned a prepared statement")
	}
}

// TestPreparedFanOutRuleFollowsVersion: an unhinted PS.Length <= 2 count
// prepared while the view's average fan-out F is below 2 runs BFScan (the
// §6.3 memory rule: F^2 < 2F). Once edge inserts lift F above 2, the same
// prepared plan, never rebuilt, runs DFScan, as a fresh ad hoc plan does,
// and both count the same paths.
func TestPreparedFanOutRuleFollowsVersion(t *testing.T) {
	const q = `SELECT COUNT(*) FROM G.Paths PS WHERE PS.Length <= 2`
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT);
		INSERT INTO V VALUES (0), (1), (2), (3), (4), (5), (6), (7), (8), (9);
		INSERT INTO E VALUES (0, 0, 1), (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5);
		CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
			EDGES(ID = eid, FROM = src, TO = dst) FROM E;
	`)
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	held := p.plan.Load()
	if plan := preparedPlan(t, e, p); !strings.Contains(plan, "PathScan[BFScan]") {
		t.Fatalf("F = 0.5: prepared plan\n%s\nwant BFScan", plan)
	}
	if plan, err := e.Explain(q); err != nil || !strings.Contains(plan, "PathScan[BFScan]") {
		t.Fatalf("F = 0.5: EXPLAIN %v\n%s\nwant BFScan", err, plan)
	}
	for k := 5; k < 25; k++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO E VALUES (%d, %d, %d)`, k, k%10, (3*k+1)%10))
	}
	if plan := preparedPlan(t, e, p); !strings.Contains(plan, "PathScan[DFScan]") {
		t.Fatalf("F = 2.5: prepared plan\n%s\nwant DFScan", plan)
	}
	if plan, err := e.Explain(q); err != nil || !strings.Contains(plan, "PathScan[DFScan]") {
		t.Fatalf("F = 2.5: EXPLAIN %v\n%s\nwant DFScan", err, plan)
	}
	prepared, err := p.Query()
	if err != nil {
		t.Fatal(err)
	}
	adhoc := mustExec(t, e, q)
	if fmt.Sprint(prepared.Rows) != fmt.Sprint(adhoc.Rows) {
		t.Fatalf("prepared counts %v, ad hoc %v", prepared.Rows, adhoc.Rows)
	}
	if p.plan.Load() != held {
		t.Fatal("edge inserts replanned the prepared statement")
	}
}

// TestPreparedReplansOnNewIndex: CREATE INDEX publishes a new catalog, so
// a prepared point read planned as a SeqScan picks the index up; a CREATE
// INDEX that fails restores the catalog, and the plan stays.
func TestPreparedReplansOnNewIndex(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE T (id BIGINT PRIMARY KEY, name VARCHAR);
		INSERT INTO T VALUES (1, 'a'), (2, 'b');
	`)
	p, err := e.Prepare(`SELECT id FROM T WHERE name = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if plan := preparedPlan(t, e, p); !strings.Contains(plan, "SeqScan T") {
		t.Fatalf("before the index:\n%s", plan)
	}
	mustExec(t, e, `CREATE INDEX t_name ON T (name)`)
	if plan := preparedPlan(t, e, p); !strings.Contains(plan, "IndexScan T using t_name") {
		t.Fatalf("after CREATE INDEX:\n%s", plan)
	}
	held := p.plan.Load()
	if _, err := e.Execute(`CREATE INDEX t_name ON T (id)`); err == nil {
		t.Fatal("a duplicate index name was accepted")
	}
	if r, err := p.Query(types.NewString("b")); err != nil || len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("prepared read after the failed DDL: %v, %v", r, err)
	}
	if p.plan.Load() != held {
		t.Fatal("a failed CREATE INDEX replanned the prepared statement")
	}
}
