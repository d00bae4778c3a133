package core

import (
	"fmt"
	"strings"
	"testing"

	"grfusion/internal/plan"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

func mustExec(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	r, err := e.Execute(q)
	if err != nil {
		t.Fatalf("Execute(%q): %v", q, err)
	}
	return r
}

func mustScript(t *testing.T, e *Engine, script string) {
	t.Helper()
	if _, err := e.ExecuteScript(script); err != nil {
		t.Fatalf("script: %v", err)
	}
}

// render flattens a result to string cells for compact assertions.
func render(r *Result) [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}

// socialEngine loads the paper's Figure 3 social network:
//
//	users:  1 Smith(Lawyer) 2 Jones(Lawyer) 3 Parker 4 Patrick 5 Quinn
//	edges (undirected): 1-2 (2001), 2-3 (2002), 3-4 (1999), 4-5 (2003), 1-3 (2004)
func socialEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE Users (uid BIGINT PRIMARY KEY, lname VARCHAR, dob VARCHAR, job VARCHAR);
		CREATE TABLE Relationships (relid BIGINT PRIMARY KEY, uid1 BIGINT, uid2 BIGINT, sdate VARCHAR, relative BOOLEAN);
		INSERT INTO Users VALUES
			(1, 'Smith',  '1970', 'Lawyer'),
			(2, 'Jones',  '1980', 'Lawyer'),
			(3, 'Parker', '1990', 'Doctor'),
			(4, 'Patrick','1985', 'Engineer'),
			(5, 'Quinn',  '1978', 'Doctor');
		INSERT INTO Relationships VALUES
			(10, 1, 2, '2001-01-01', true),
			(11, 2, 3, '2002-01-01', false),
			(12, 3, 4, '1999-06-01', false),
			(13, 4, 5, '2003-01-01', true),
			(14, 1, 3, '2004-01-01', false);
		CREATE UNDIRECTED GRAPH VIEW SocialNetwork
			VERTEXES(ID = uid, lstname = lname, birthdate = dob, job = job)
			FROM Users
			EDGES(ID = relid, FROM = uid1, TO = uid2, sdate = sdate, relative = relative)
			FROM Relationships;
	`)
	return e
}

func TestBasicSelectWhereOrder(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT lname, dob FROM Users WHERE job = 'Doctor' ORDER BY dob`)
	got := render(r)
	if len(got) != 2 || got[0][0] != "Quinn" || got[1][0] != "Parker" {
		t.Fatalf("rows: %v", got)
	}
	if r.Columns[0] != "lname" || r.Columns[1] != "dob" {
		t.Errorf("columns: %v", r.Columns)
	}
}

func TestSelectStarAndAlias(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT * FROM Users WHERE uid = 1`)
	if len(r.Rows) != 1 || len(r.Rows[0]) != 4 {
		t.Fatalf("star: %v", render(r))
	}
	r = mustExec(t, e, `SELECT U.lname AS name FROM Users U WHERE U.uid = 2`)
	if r.Columns[0] != "name" || r.Rows[0][0].S != "Jones" {
		t.Fatalf("%v %v", r.Columns, render(r))
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT job, COUNT(*) AS n FROM Users GROUP BY job ORDER BY n DESC, job`)
	got := render(r)
	want := [][]string{{"Doctor", "2"}, {"Lawyer", "2"}, {"Engineer", "1"}}
	if len(got) != 3 {
		t.Fatalf("groups: %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("groups: %v, want %v", got, want)
		}
	}
	r = mustExec(t, e, `SELECT COUNT(*), MIN(dob), MAX(dob) FROM Users`)
	if r.Rows[0][0].I != 5 || r.Rows[0][1].S != "1970" || r.Rows[0][2].S != "1990" {
		t.Fatalf("global agg: %v", render(r))
	}
	r = mustExec(t, e, `SELECT job FROM Users GROUP BY job HAVING COUNT(*) > 1 ORDER BY job`)
	if len(r.Rows) != 2 || r.Rows[0][0].S != "Doctor" {
		t.Fatalf("having: %v", render(r))
	}
	// Empty input still yields one global-aggregate row.
	r = mustExec(t, e, `SELECT COUNT(*) FROM Users WHERE job = 'Astronaut'`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 0 {
		t.Fatalf("empty agg: %v", render(r))
	}
}

func TestJoins(t *testing.T) {
	e := socialEngine(t)
	// Hash join via equi-predicate.
	r := mustExec(t, e, `
		SELECT U1.lname, U2.lname FROM Users U1, Relationships R, Users U2
		WHERE U1.uid = R.uid1 AND U2.uid = R.uid2 AND R.sdate > '2002-06-01'
		ORDER BY R.relid`)
	got := render(r)
	if len(got) != 2 || got[0][0] != "Patrick" || got[0][1] != "Quinn" || got[1][0] != "Smith" {
		t.Fatalf("join rows: %v", got)
	}
	// Explicit JOIN ... ON syntax plans identically.
	r2 := mustExec(t, e, `
		SELECT U1.lname, U2.lname FROM Users U1
		JOIN Relationships R ON U1.uid = R.uid1
		JOIN Users U2 ON U2.uid = R.uid2
		WHERE R.sdate > '2002-06-01' ORDER BY R.relid`)
	if len(r2.Rows) != 2 {
		t.Fatalf("join-on rows: %v", render(r2))
	}
	// Cross product falls back to nested loops.
	r3 := mustExec(t, e, `SELECT COUNT(*) FROM Users U1, Users U2`)
	if r3.Rows[0][0].I != 25 {
		t.Fatalf("cross: %v", render(r3))
	}
}

func TestIndexScanChosen(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `CREATE INDEX ix_job ON Users (job)`)
	planText, err := e.Explain(`SELECT lname FROM Users WHERE job = 'Lawyer'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText, "IndexScan") {
		t.Errorf("plan does not use index:\n%s", planText)
	}
	r := mustExec(t, e, `SELECT lname FROM Users WHERE job = 'Lawyer' ORDER BY lname`)
	if len(r.Rows) != 2 || r.Rows[0][0].S != "Jones" {
		t.Fatalf("index scan rows: %v", render(r))
	}
}

func TestDistinctLimitOffset(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT DISTINCT job FROM Users ORDER BY job`)
	if len(r.Rows) != 3 {
		t.Fatalf("distinct: %v", render(r))
	}
	r = mustExec(t, e, `SELECT uid FROM Users ORDER BY uid LIMIT 2 OFFSET 1`)
	if len(r.Rows) != 2 || r.Rows[0][0].I != 2 || r.Rows[1][0].I != 3 {
		t.Fatalf("limit/offset: %v", render(r))
	}
}

// Listing 5: vertex scan with relational operators above.
func TestVertexScanListing5(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT VS.birthdate, VS.fanOut FROM SocialNetwork.Vertexes VS WHERE VS.lstname = 'Smith'`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %v", render(r))
	}
	// Smith (vertex 1) has undirected degree 2 (edges 10, 14).
	if r.Rows[0][0].S != "1970" || r.Rows[0][1].I != 2 {
		t.Fatalf("row: %v", render(r))
	}
}

func TestEdgeScan(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT ES.ID, ES.sdate FROM SocialNetwork.Edges ES WHERE ES.relative = true ORDER BY ES.ID`)
	if len(r.Rows) != 2 || r.Rows[0][0].I != 10 || r.Rows[1][0].I != 13 {
		t.Fatalf("edges: %v", render(r))
	}
}

// Listing 2: friends-of-friends of lawyers through post-2000 edges.
func TestFriendsOfFriendsListing2(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT PS.EndVertex.lstname
		FROM Users U, SocialNetwork.Paths PS
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid
		  AND PS.Length = 2 AND PS.Edges[0..*].sdate > '2000-01-01'
		ORDER BY PS.EndVertex.lstname`)
	got := render(r)
	// Visit-once traversal from Smith(1): 1-2(2001)->... and 1-3(2004);
	// from Jones(2): 2-1, 2-3 then depth 2 continuations. The exact rows
	// depend on visit-once tree shape; what must hold: every end vertex is
	// at distance 2 through post-2000 edges, and Parker (via 1-2-3 or
	// 1-3-?) appears.
	if len(got) == 0 {
		t.Fatalf("no FoF results")
	}
	for _, row := range got {
		if row[0] == "" {
			t.Fatalf("empty name in %v", got)
		}
	}
}

// Listing 3 shape: reachability with an all-edges predicate and LIMIT 1.
func TestReachabilityListing3(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT PS.PathString
		FROM Users Src, Users Dst, SocialNetwork.Paths PS
		WHERE Src.lname = 'Smith' AND Dst.lname = 'Quinn'
		  AND PS.StartVertex.Id = Src.uid AND PS.EndVertex.Id = Dst.uid
		LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("reachability rows: %v", render(r))
	}
	ps := r.Rows[0][0].S
	if !strings.HasPrefix(ps, "1-[") || !strings.HasSuffix(ps, "->5") {
		t.Fatalf("path string: %q", ps)
	}
	// Unreachable under a constraining edge filter.
	r = mustExec(t, e, `
		SELECT PS.PathString
		FROM Users Src, Users Dst, SocialNetwork.Paths PS
		WHERE Src.lname = 'Smith' AND Dst.lname = 'Quinn'
		  AND PS.StartVertex.Id = Src.uid AND PS.EndVertex.Id = Dst.uid
		  AND PS.Edges[0..*].sdate < '2000-01-01'
		LIMIT 1`)
	if len(r.Rows) != 0 {
		t.Fatalf("filtered reachability must be empty: %v", render(r))
	}
}

// Listing 4 shape: triangle counting via cycle closure.
func TestTriangleCountListing4(t *testing.T) {
	e := socialEngine(t)
	// The social graph has exactly one triangle: 1-2-3-1. Undirected, so
	// starting from each of its 3 vertexes there are 2 orientations = 6
	// closed length-3 paths in per-path mode.
	r := mustExec(t, e, `
		SELECT COUNT(P) FROM SocialNetwork.Paths P
		WHERE P.Length = 3 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`)
	if r.Rows[0][0].I != 6 {
		t.Fatalf("triangle closed paths = %v, want 6", render(r))
	}
}

// Listing 6 shape: TOP-k shortest paths with a weight hint.
func TestShortestPathListing6(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE Nodes (nid BIGINT PRIMARY KEY, addr VARCHAR);
		CREATE TABLE Roads (rid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, dist DOUBLE);
		INSERT INTO Nodes VALUES (1,'Address 1'),(2,'mid'),(3,'mid2'),(4,'Address 2');
		INSERT INTO Roads VALUES
			(1, 1, 2, 1.0), (2, 2, 4, 1.0),
			(3, 1, 3, 1.5), (4, 3, 4, 1.5),
			(5, 1, 4, 10.0);
		CREATE UNDIRECTED GRAPH VIEW RoadNetwork
			VERTEXES(ID = nid, Address = addr) FROM Nodes
			EDGES(ID = rid, FROM = a, TO = b, Distance = dist) FROM Roads;
	`)
	r := mustExec(t, e, `
		SELECT TOP 2 PS.PathString FROM RoadNetwork.Paths PS HINT(SHORTESTPATH(Distance)),
			RoadNetwork.Vertexes Src, RoadNetwork.Vertexes Dest
		WHERE PS.StartVertex.Id = Src.Id AND PS.EndVertex.Id = Dest.Id
		  AND Src.Address = 'Address 1' AND Dest.Address = 'Address 2'`)
	got := render(r)
	if len(got) != 2 {
		t.Fatalf("top-2 rows: %v", got)
	}
	if got[0][0] != "1-[1]->2-[2]->4" {
		t.Errorf("shortest = %q", got[0][0])
	}
	if got[1][0] != "1-[3]->3-[4]->4" {
		t.Errorf("second = %q", got[1][0])
	}
}

// TestPinnedPlanPathAttrKinds checks that the plan the engine runs — built
// under the pinned version's catalog — types path attributes by their
// source columns and agrees column for column with a plan.New plan of the
// same query.
func TestPinnedPlanPathAttrKinds(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE Nodes (nid BIGINT PRIMARY KEY, addr VARCHAR);
		CREATE TABLE Roads (rid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, dist DOUBLE);
		INSERT INTO Nodes VALUES (1,'Address 1'),(2,'Address 2');
		INSERT INTO Roads VALUES (1, 1, 2, 1.5);
		CREATE UNDIRECTED GRAPH VIEW RoadNetwork
			VERTEXES(ID = nid, Address = addr) FROM Nodes
			EDGES(ID = rid, FROM = a, TO = b, Distance = dist) FROM Roads;
	`)
	const q = `SELECT PS.Edges[0].Distance, PS.StartVertex.Id, PS.EndVertex.Address,
		PS.EndVertex.FanOut, PS.Vertexes[1].fanin, PS.Edges[0].ID
		FROM RoadNetwork.Paths PS WHERE PS.StartVertex.Id = 1`
	want := []types.Kind{types.KindFloat, types.KindInt, types.KindString,
		types.KindInt, types.KindInt, types.KindInt}
	kinds := func(p *plan.Planner) []types.Kind {
		t.Helper()
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		op, err := p.PlanSelect(stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		var out []types.Kind
		for _, c := range op.Schema().Columns {
			out = append(out, c.Type)
		}
		return out
	}
	st := e.pin()
	defer e.unpin(st)
	pinned, live := kinds(e.planner(st.cat)), kinds(plan.New(e.Catalog()))
	if fmt.Sprint(pinned) != fmt.Sprint(want) || fmt.Sprint(live) != fmt.Sprint(want) {
		t.Errorf("result kinds: pinned %v, live %v, want %v", pinned, live, want)
	}
}

func TestPathAggregatePredicate(t *testing.T) {
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE N (nid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, cost BIGINT);
		INSERT INTO N VALUES (1),(2),(3),(4);
		INSERT INTO E VALUES (1,1,2,5),(2,2,3,5),(3,3,4,5);
		CREATE DIRECTED GRAPH VIEW G
			VERTEXES(ID = nid) FROM N
			EDGES(ID = eid, FROM = a, TO = b, Cost = cost) FROM E;
	`)
	// SUM(cost) < 11 admits paths of 1 or 2 edges (5, 10) but not 3 (15).
	r := mustExec(t, e, `
		SELECT PS.PathString, SUM(PS.Edges.Cost) FROM G.Paths PS
		WHERE PS.StartVertex.Id = 1 AND SUM(PS.Edges.Cost) < 11
		ORDER BY PS.Length`)
	got := render(r)
	if len(got) != 2 || got[0][1] != "5" || got[1][1] != "10" {
		t.Fatalf("agg-bound paths: %v", got)
	}
}

func TestPathsFromAllVertexes(t *testing.T) {
	e := socialEngine(t)
	// No start binding: traversal starts from every vertex (§5.1.2).
	r := mustExec(t, e, `SELECT COUNT(P) FROM SocialNetwork.Paths P WHERE P.Length = 1`)
	if r.Rows[0][0].I <= 0 {
		t.Fatalf("no length-1 paths: %v", render(r))
	}
}

func TestGraphDataUpdateVisibleWithoutRebuild(t *testing.T) {
	e := socialEngine(t)
	// Attribute updates flow through tuple pointers (§3.3.1): no view DDL.
	mustExec(t, e, `UPDATE Users SET lname = 'Smythe' WHERE uid = 1`)
	r := mustExec(t, e, `SELECT VS.lstname FROM SocialNetwork.Vertexes VS WHERE VS.ID = 1`)
	if r.Rows[0][0].S != "Smythe" {
		t.Fatalf("stale attribute: %v", render(r))
	}
}

func TestTopologyInsertDelete(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `INSERT INTO Users VALUES (6, 'New', '2000', 'None')`)
	mustExec(t, e, `INSERT INTO Relationships VALUES (15, 5, 6, '2020-01-01', false)`)
	r := mustExec(t, e, `
		SELECT PS.PathString FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 6 LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("new vertex unreachable: %v", render(r))
	}
	mustExec(t, e, `DELETE FROM Relationships WHERE relid = 15`)
	r = mustExec(t, e, `
		SELECT PS.PathString FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 6 LIMIT 1`)
	if len(r.Rows) != 0 {
		t.Fatalf("deleted edge still traversable: %v", render(r))
	}
}

func TestVertexDeleteCascadesEdgeTuples(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `DELETE FROM Users WHERE uid = 3`)
	if r.Affected != 1 {
		t.Fatalf("affected: %d", r.Affected)
	}
	// Vertex 3 had edges 11, 12, 14; their tuples must be gone too.
	q := mustExec(t, e, `SELECT COUNT(*) FROM Relationships`)
	if q.Rows[0][0].I != 2 {
		t.Fatalf("edge tuples after cascade: %v", render(q))
	}
	q = mustExec(t, e, `SELECT COUNT(*) FROM SocialNetwork.Vertexes VS`)
	if q.Rows[0][0].I != 4 {
		t.Fatalf("vertices after cascade: %v", render(q))
	}
}

func TestVertexIDUpdateKeepsReferentialIntegrity(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `UPDATE Users SET uid = 100 WHERE uid = 1`)
	// Edge tuples referencing 1 must now reference 100 (§3.3.1).
	r := mustExec(t, e, `SELECT COUNT(*) FROM Relationships WHERE uid1 = 100 OR uid2 = 100`)
	if r.Rows[0][0].I != 2 {
		t.Fatalf("edges referencing renamed vertex: %v", render(r))
	}
	// Traversal from the renamed vertex still works.
	r = mustExec(t, e, `
		SELECT PS.PathString FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 100 AND PS.EndVertex.Id = 5 LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("renamed vertex unreachable: %v", render(r))
	}
}

func TestMultiRowInsertAtomicity(t *testing.T) {
	e := socialEngine(t)
	// Second row violates the primary key; the first must be rolled back.
	_, err := e.Execute(`INSERT INTO Users VALUES (7, 'A', '1', 'x'), (1, 'B', '2', 'y')`)
	if err == nil {
		t.Fatal("pk violation accepted")
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM Users WHERE uid = 7`)
	if r.Rows[0][0].I != 0 {
		t.Fatal("partial insert not rolled back")
	}
	// Graph view must not have gained a vertex either.
	r = mustExec(t, e, `SELECT COUNT(*) FROM SocialNetwork.Vertexes VS`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("vertex count after rollback: %v", render(r))
	}
}

func TestDanglingEdgeInsertRejectedAtomically(t *testing.T) {
	e := socialEngine(t)
	_, err := e.Execute(`INSERT INTO Relationships VALUES (20, 1, 2, 'd', false), (21, 1, 999, 'd', false)`)
	if err == nil {
		t.Fatal("dangling edge accepted")
	}
	r := mustExec(t, e, `SELECT COUNT(*) FROM Relationships WHERE relid IN (20, 21)`)
	if r.Rows[0][0].I != 0 {
		t.Fatal("partial edge insert not rolled back")
	}
	r = mustExec(t, e, `SELECT COUNT(*) FROM SocialNetwork.Edges ES`)
	if r.Rows[0][0].I != 5 {
		t.Fatalf("edge count after rollback: %v", render(r))
	}
}

func TestMemLimitAborts(t *testing.T) {
	e := New(Options{MemLimit: 256})
	mustScript(t, e, `
		CREATE TABLE T (a BIGINT PRIMARY KEY, pad VARCHAR);
		INSERT INTO T VALUES (1,'xxxxxxxxxxxxxxxxxxxxxxxx'),(2,'yyyyyyyyyyyyyyyyyyyyyyyy'),(3,'zzzzzzzzzzzzzzzzzzzzzzzz');
	`)
	_, err := e.Execute(`SELECT COUNT(*) FROM T T1, T T2`)
	if err == nil || !strings.Contains(err.Error(), "memory limit") {
		t.Fatalf("expected memory-limit abort, got %v", err)
	}
}

func TestDDLErrorsAndShow(t *testing.T) {
	e := socialEngine(t)
	if _, err := e.Execute(`CREATE TABLE Users (x BIGINT)`); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := e.Execute(`DROP TABLE Users`); err == nil {
		t.Error("drop of graph-view source accepted")
	}
	if _, err := e.Execute(`TRUNCATE TABLE Relationships`); err == nil {
		t.Error("truncate of graph-view source accepted")
	}
	// Attribute names a scan or a path expression could not tell apart: a
	// vertex attribute shadowing FanOut/FanIn, or a name declared twice.
	for _, view := range []string{
		`VERTEXES(ID = uid, FanOut = uid) FROM Users EDGES(ID = relid, FROM = uid1, TO = uid2) FROM Relationships`,
		`VERTEXES(ID = uid, fanin = uid) FROM Users EDGES(ID = relid, FROM = uid1, TO = uid2) FROM Relationships`,
		`VERTEXES(ID = uid, x = lname, X = dob) FROM Users EDGES(ID = relid, FROM = uid1, TO = uid2) FROM Relationships`,
		`VERTEXES(ID = uid) FROM Users EDGES(ID = relid, FROM = uid1, TO = uid2, w = sdate, w = relid) FROM Relationships`,
	} {
		if _, err := e.Execute(`CREATE DIRECTED GRAPH VIEW G1 ` + view); err == nil {
			t.Errorf("graph view accepted: %s", view)
		}
	}
	mustExec(t, e, `DROP GRAPH VIEW SocialNetwork`)
	mustExec(t, e, `TRUNCATE TABLE Relationships`)
	mustExec(t, e, `DROP TABLE Relationships`)
	r := mustExec(t, e, `SHOW TABLES`)
	if len(r.Rows) != 1 || r.Rows[0][0].S != "Users" {
		t.Fatalf("show tables: %v", render(r))
	}
	r = mustExec(t, e, `SHOW GRAPH VIEWS`)
	if len(r.Rows) != 0 {
		t.Fatalf("show views: %v", render(r))
	}
}

func TestExplainShowsCrossModelPlan(t *testing.T) {
	e := socialEngine(t)
	planText, err := e.Explain(`
		SELECT PS.EndVertex.lstname FROM Users U, SocialNetwork.Paths PS
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PathScan", "SeqScan", "len=[2,2]"} {
		if !strings.Contains(planText, want) {
			t.Errorf("plan missing %q:\n%s", want, planText)
		}
	}
}

func TestPushdownToggle(t *testing.T) {
	e := socialEngine(t)
	q := `SELECT COUNT(P) FROM SocialNetwork.Paths P
		WHERE P.StartVertex.Id = 1 AND P.Length = 2 AND P.Edges[0..*].sdate > '2000-01-01'`
	withPush := mustExec(t, e, q).Rows[0][0].I
	e.SetPlanOptions(plan.Options{DisablePushdown: true})
	withoutPush := mustExec(t, e, q).Rows[0][0].I
	if withPush != withoutPush {
		t.Fatalf("pushdown changed results: %d vs %d", withPush, withoutPush)
	}
}

func TestTraversalHintsExecute(t *testing.T) {
	e := socialEngine(t)
	for _, hint := range []string{"HINT(DFS)", "HINT(BFS)"} {
		r := mustExec(t, e, `SELECT COUNT(P) FROM SocialNetwork.Paths P `+hint+`
			WHERE P.StartVertex.Id = 1 AND P.Length = 2`)
		if r.Rows[0][0].I <= 0 {
			t.Fatalf("%s: no paths", hint)
		}
	}
	// DFS and BFS must agree on the number of simple paths when both
	// enumerate ALL simple paths (visit-once tree shapes may differ).
	var counts []int64
	for _, hint := range []string{"HINT(DFS, ALLPATHS)", "HINT(BFS, ALLPATHS)"} {
		r := mustExec(t, e, `SELECT COUNT(P) FROM SocialNetwork.Paths P `+hint+`, Users U
			WHERE P.StartVertex.Id = U.uid AND P.Length = 2`)
		counts = append(counts, r.Rows[0][0].I)
	}
	if counts[0] != counts[1] {
		t.Fatalf("DFS/BFS disagree: %v", counts)
	}
}

func TestSelectBarePathValue(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT PS FROM SocialNetwork.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Length = 1 ORDER BY PS.PathString`)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r.Rows[0][0].Kind != types.KindPath {
		t.Fatalf("kind: %v", r.Rows[0][0].Kind)
	}
	if !strings.Contains(r.Rows[0][0].String(), "->") {
		t.Fatalf("path rendering: %q", r.Rows[0][0].String())
	}
}

func TestVertexFanPropertiesInPaths(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT PS.EndVertex.fanout FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 2 AND PS.Length = 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 {
		t.Fatalf("fanout through path: %v", render(r))
	}
}

func TestUnknownEntitiesError(t *testing.T) {
	e := socialEngine(t)
	for _, q := range []string{
		`SELECT * FROM Ghost`,
		`SELECT * FROM Ghost.Paths P`,
		`SELECT ghostcol FROM Users`,
		`SELECT P.Edges[0..*].nosuch FROM SocialNetwork.Paths P`,
		`INSERT INTO Ghost VALUES (1)`,
		`UPDATE Ghost SET a = 1`,
		`DELETE FROM Ghost`,
		`SELECT TOP 1 PS FROM SocialNetwork.Paths PS HINT(SHORTESTPATH(nosuch))`,
	} {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("accepted: %q", q)
		}
	}
}

func TestLazyLimitStopsTraversal(t *testing.T) {
	// A long chain: LIMIT 1 reachability must not enumerate all paths.
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE N (nid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT);
	`)
	var nodes, edges strings.Builder
	nodes.WriteString("INSERT INTO N VALUES (0)")
	edges.WriteString("INSERT INTO E VALUES (0, 0, 1)")
	for i := 1; i <= 200; i++ {
		nodes.WriteString(strings.ReplaceAll(", (X)", "X", itoa(i)))
		if i < 200 {
			edges.WriteString(", (" + itoa(i) + ", " + itoa(i) + ", " + itoa(i+1) + ")")
		}
	}
	mustExec(t, e, nodes.String())
	mustExec(t, e, edges.String())
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW G VERTEXES(ID=nid) FROM N EDGES(ID=eid, FROM=a, TO=b) FROM E`)
	r := mustExec(t, e, `
		SELECT PS.PathString FROM G.Paths PS
		WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 5 LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows: %v", render(r))
	}
}

func itoa(i int) string {
	return types.NewInt(int64(i)).String()
}

// §4: "GRFusion allows self-joins of the paths of a given graph view" —
// a second path variable whose start binds to the first's end composes
// two traversals in one QEP.
func TestPathSelfJoin(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT P1.PathString, P2.PathString
		FROM SocialNetwork.Paths P1, SocialNetwork.Paths P2
		WHERE P1.StartVertex.Id = 1 AND P1.Length = 1
		  AND P2.StartVertex.Id = P1.EndVertexId AND P2.Length = 1
		ORDER BY P1.PathString, P2.PathString`)
	if len(r.Rows) == 0 {
		t.Fatal("no composed paths")
	}
	for _, row := range r.Rows {
		p1, p2 := row[0].S, row[1].S
		// P2 must start where P1 ends.
		endOfP1 := p1[strings.LastIndex(p1, ">")+1:]
		if !strings.HasPrefix(p2, endOfP1+"-") && !strings.HasPrefix(p2, endOfP1) {
			t.Errorf("composition broken: %q then %q", p1, p2)
		}
	}
}

// §5.3: relational items are joined first regardless of their position in
// the FROM clause; a PATHS item listed first still gets probed by the
// relational side.
func TestFromOrderIndependence(t *testing.T) {
	e := socialEngine(t)
	q1 := `SELECT COUNT(*) FROM Users U, SocialNetwork.Paths PS
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`
	q2 := `SELECT COUNT(*) FROM SocialNetwork.Paths PS, Users U
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`
	a := mustExec(t, e, q1).Rows[0][0].I
	b := mustExec(t, e, q2).Rows[0][0].I
	if a != b || a == 0 {
		t.Fatalf("FROM order changed results: %d vs %d", a, b)
	}
}

// Two graph views in one query (paths from different graphs).
func TestTwoGraphViewsInOneQuery(t *testing.T) {
	e := socialEngine(t)
	mustScript(t, e, `
		CREATE TABLE Cities (cid BIGINT PRIMARY KEY, cname VARCHAR);
		CREATE TABLE Roads (rid BIGINT PRIMARY KEY, a BIGINT, b BIGINT);
		INSERT INTO Cities VALUES (1,'x'),(2,'y'),(3,'z');
		INSERT INTO Roads VALUES (1,1,2),(2,2,3);
		CREATE DIRECTED GRAPH VIEW RoadNet
			VERTEXES(ID = cid, cname = cname) FROM Cities
			EDGES(ID = rid, FROM = a, TO = b) FROM Roads;
	`)
	r := mustExec(t, e, `
		SELECT SP.PathString, RP.PathString
		FROM SocialNetwork.Paths SP, RoadNet.Paths RP
		WHERE SP.StartVertex.Id = 1 AND SP.Length = 1
		  AND RP.StartVertex.Id = 1 AND RP.Length = 2`)
	if len(r.Rows) == 0 {
		t.Fatal("cross-graph query returned nothing")
	}
	for _, row := range r.Rows {
		if !strings.Contains(row[1].S, "->3") {
			t.Errorf("road path wrong: %q", row[1].S)
		}
	}
}

func TestFromLessSelect(t *testing.T) {
	e := New(Options{})
	r := mustExec(t, e, `SELECT 1 + 1 AS two, UPPER('ok')`)
	if len(r.Rows) != 1 || r.Rows[0][0].I != 2 || r.Rows[0][1].S != "OK" {
		t.Fatalf("constant select: %v", render(r))
	}
	if r.Columns[0] != "two" {
		t.Errorf("columns: %v", r.Columns)
	}
	// A constant WHERE gates the singleton row.
	r = mustExec(t, e, `SELECT 1 WHERE 1 = 2`)
	if len(r.Rows) != 0 {
		t.Fatalf("gated constant select: %v", render(r))
	}
	// Star without FROM is an error.
	if _, err := e.Execute(`SELECT *`); err == nil {
		t.Error("star without FROM accepted")
	}
}

func TestUpdateWithRowExpression(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `UPDATE Users SET dob = UPPER(lname) WHERE uid <= 2`)
	r := mustExec(t, e, `SELECT dob FROM Users WHERE uid = 1`)
	if r.Rows[0][0].S != "SMITH" {
		t.Fatalf("row-expression update: %v", render(r))
	}
	// Arithmetic self-reference.
	mustScript(t, e, `
		CREATE TABLE Cnt (id BIGINT PRIMARY KEY, n BIGINT);
		INSERT INTO Cnt VALUES (1, 10);
		UPDATE Cnt SET n = n + 5 WHERE id = 1;
	`)
	v, _ := e.Execute(`SELECT n FROM Cnt`)
	if v.Rows[0][0].I != 15 {
		t.Fatalf("self-referencing update: %v", render(v))
	}
}

func TestDistinctOverPaths(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT DISTINCT PS.EndVertex.lstname FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1`)
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if seen[row[0].S] {
			t.Fatalf("duplicate after DISTINCT: %v", render(r))
		}
		seen[row[0].S] = true
	}
}

func TestVertexPropertyFilterPushed(t *testing.T) {
	e := socialEngine(t)
	// FanOut is a computed property: the pushed vertex filter must take
	// the accessor path (no source column).
	r := mustExec(t, e, `
		SELECT COUNT(*) FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1 AND PS.Vertexes[0..*].fanout >= 1`)
	if r.Rows[0][0].I <= 0 {
		t.Fatalf("fanout-filtered paths: %v", render(r))
	}
}

func TestOrderByUnprojectedColumn(t *testing.T) {
	e := socialEngine(t)
	// dob is not projected; the sort binds below the projection.
	r := mustExec(t, e, `SELECT lname FROM Users ORDER BY dob DESC LIMIT 2`)
	if len(r.Rows) != 2 || r.Rows[0][0].S != "Parker" || r.Rows[1][0].S != "Patrick" {
		t.Fatalf("unprojected order: %v", render(r))
	}
	// Aliased aggregate ordering (above the projection).
	r = mustExec(t, e, `SELECT job, COUNT(*) AS n FROM Users GROUP BY job ORDER BY n, job LIMIT 1`)
	if r.Rows[0][0].S != "Engineer" {
		t.Fatalf("agg order: %v", render(r))
	}
	// Ordering by an aggregate not in the select list resolves by text.
	r = mustExec(t, e, `SELECT job, COUNT(*) FROM Users GROUP BY job ORDER BY COUNT(*) DESC, job LIMIT 1`)
	if r.Rows[0][0].S != "Doctor" {
		t.Fatalf("agg-by-text order: %v", render(r))
	}
}

func TestOrderByPathString(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `
		SELECT PS.PathString FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1
		ORDER BY PS.PathString DESC`)
	if len(r.Rows) < 2 {
		t.Fatal("need >=2 paths")
	}
	if r.Rows[0][0].S < r.Rows[1][0].S {
		t.Fatalf("descending order broken: %v", render(r))
	}
}

func TestLikePredicatePushedIntoTraversal(t *testing.T) {
	e := socialEngine(t)
	// LIKE on a path range is a pushable comparison (OpLike).
	r := mustExec(t, e, `
		SELECT COUNT(*) FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1 AND PS.Edges[0..*].sdate LIKE '200%'`)
	if r.Rows[0][0].I != 2 { // edges 10 (2001) and 14 (2004)
		t.Fatalf("LIKE-filtered paths: %v", render(r))
	}
	planText, err := e.Explain(`
		SELECT COUNT(*) FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1 AND PS.Edges[0..*].sdate LIKE '200%'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(planText, "pushed=1") {
		t.Errorf("LIKE not pushed:\n%s", planText)
	}
}
