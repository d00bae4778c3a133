package core

import (
	"bytes"
	"testing"

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
