package plan

import (
	"strings"
	"testing"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/graph"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// fixture builds a catalog with Users/Friends tables, a Social graph view
// (chain 1-2-3-4-5 plus chords), and an index on Users.job.
func fixture(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	users, err := storage.NewTable("Users", types.NewSchema(
		types.Column{Qualifier: "Users", Name: "uid", Type: types.KindInt},
		types.Column{Qualifier: "Users", Name: "name", Type: types.KindString},
		types.Column{Qualifier: "Users", Name: "job", Type: types.KindString},
	), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	friends, err := storage.NewTable("Friends", types.NewSchema(
		types.Column{Qualifier: "Friends", Name: "fid", Type: types.KindInt},
		types.Column{Qualifier: "Friends", Name: "a", Type: types.KindInt},
		types.Column{Qualifier: "Friends", Name: "b", Type: types.KindInt},
		types.Column{Qualifier: "Friends", Name: "w", Type: types.KindFloat},
	), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		users.Insert(types.Row{types.NewInt(i), types.NewString("u"), types.NewString("Lawyer")})
	}
	edges := [][3]int64{{1, 1, 2}, {2, 2, 3}, {3, 3, 4}, {4, 4, 5}, {5, 1, 3}}
	for _, e := range edges {
		friends.Insert(types.Row{types.NewInt(e[0]), types.NewInt(e[1]), types.NewInt(e[2]), types.NewFloat(1)})
	}
	if err := cat.CreateTable(users); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(friends); err != nil {
		t.Fatal(err)
	}
	if _, err := users.CreateIndex("ix_job", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	gv, err := catalog.NewGraphView("Social", false, users, friends,
		[]catalog.AttrMap{{Name: "ID", Source: "uid"}, {Name: "name", Source: "name"}, {Name: "job", Source: "job"}},
		[]catalog.AttrMap{{Name: "ID", Source: "fid"}, {Name: "FROM", Source: "a"},
			{Name: "TO", Source: "b"}, {Name: "w", Source: "w"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterGraphView(gv); err != nil {
		t.Fatal(err)
	}
	return cat
}

func planFor(t *testing.T, cat *catalog.Catalog, opts Options, q string) exec.Operator {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	p := New(cat)
	p.Opts = opts
	op, err := p.PlanSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	return op
}

func planErr(t *testing.T, cat *catalog.Catalog, q string) error {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		return err
	}
	p := New(cat)
	_, err = p.PlanSelect(stmt.(*sql.Select))
	if err == nil {
		t.Fatalf("plan %q succeeded unexpectedly", q)
	}
	return err
}

// findPathScan digs the PathProbeJoin out of a plan.
func findPathScan(op exec.Operator) *exec.PathProbeJoin {
	if pp, ok := op.(*exec.PathProbeJoin); ok {
		return pp
	}
	for _, c := range op.Children() {
		if pp := findPathScan(c); pp != nil {
			return pp
		}
	}
	return nil
}

func TestLengthInferenceExplicit(t *testing.T) {
	cat := fixture(t)
	cases := []struct {
		where    string
		min, max int
	}{
		{"PS.Length = 2", 2, 2},
		{"PS.Length <= 3", 1, 3},
		{"PS.Length < 3", 1, 2},
		{"PS.Length >= 4", 4, 0},
		{"PS.Length > 2", 3, 0},
		{"PS.Length >= 2 AND PS.Length <= 5", 2, 5},
		{"2 = PS.Length", 2, 2},
		{"3 >= PS.Length", 1, 3},
	}
	for _, c := range cases {
		op := planFor(t, cat, Options{}, "SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND "+c.where)
		pp := findPathScan(op)
		if pp == nil {
			t.Fatalf("%s: no path scan", c.where)
		}
		if pp.Spec.MinLen != c.min || pp.Spec.MaxLen != c.max {
			t.Errorf("%s: len=[%d,%d], want [%d,%d]", c.where, pp.Spec.MinLen, pp.Spec.MaxLen, c.min, c.max)
		}
	}
}

func TestLengthInferenceFromSubscripts(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Edges[2..*].w > 0 AND PS.Length <= 5")
	pp := findPathScan(op)
	// Edges[2..*] requires position 2 to exist: min length 3 (§6.1).
	if pp.Spec.MinLen != 3 {
		t.Errorf("wildcard inference: min=%d, want 3", pp.Spec.MinLen)
	}
	op = planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Edges[1..3].w > 0")
	pp = findPathScan(op)
	if pp.Spec.MinLen != 4 {
		t.Errorf("closed-range inference: min=%d, want 4", pp.Spec.MinLen)
	}
	// Disabled inference keeps the default minimum.
	op = planFor(t, cat, Options{DisableLengthInference: true},
		"SELECT PS FROM Social.Paths PS HINT(ALLPATHS) WHERE PS.StartVertex.Id = 1 AND PS.Edges[2..*].w > 0 AND PS.Length <= 4")
	pp = findPathScan(op)
	if pp.Spec.MinLen != 1 {
		t.Errorf("disabled inference: min=%d, want 1", pp.Spec.MinLen)
	}
}

func TestStartEndBindingsConsumed(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5")
	pp := findPathScan(op)
	if pp.Spec.StartExpr == nil || pp.Spec.EndExpr == nil {
		t.Fatalf("bindings not extracted: %+v", pp.Spec)
	}
	// With both endpoints bound and visit-once policy, BFS is selected.
	if pp.Spec.Phys != exec.PhysBFS {
		t.Errorf("phys = %v, want BFScan for targeted reachability", pp.Spec.Phys)
	}
}

func TestStartBindingFromOuterRelation(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{}, `
		SELECT PS FROM Users U, Social.Paths PS
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`)
	pp := findPathScan(op)
	if pp.Spec.StartExpr == nil {
		t.Fatal("outer-bound start not extracted")
	}
	if !strings.Contains(pp.Spec.StartExpr.String(), "uid") {
		t.Errorf("start expr: %s", pp.Spec.StartExpr)
	}
	// The outer must be a scan of Users (the Figure 6 shape).
	plan := exec.Explain(op)
	if !strings.Contains(plan, "Scan Users") {
		t.Errorf("outer not a Users scan:\n%s", plan)
	}
}

func TestElemFilterPushdown(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Edges[0..*].w > 0.5 AND PS.Length = 2")
	pp := findPathScan(op)
	if len(pp.Spec.EdgeFilters) != 1 {
		t.Fatalf("edge filters: %+v", pp.Spec.EdgeFilters)
	}
	f := pp.Spec.EdgeFilters[0]
	if !f.Rng.Wildcard || f.Rng.Start != 0 || f.Attr != "w" {
		t.Errorf("filter shape: %+v", f)
	}
	// IN-list pushdown.
	op = planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Edges[0..*].w IN (1.0, 2.0) AND PS.Length = 2")
	pp = findPathScan(op)
	if len(pp.Spec.EdgeFilters) != 1 || !pp.Spec.EdgeFilters[0].IsIn {
		t.Fatalf("IN filter not pushed: %+v", pp.Spec.EdgeFilters)
	}
	// Vertex filters land separately.
	op = planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Vertexes[0..*].job = 'Lawyer' AND PS.Length = 2")
	pp = findPathScan(op)
	if len(pp.Spec.VertexFilters) != 1 {
		t.Fatalf("vertex filters: %+v", pp.Spec.VertexFilters)
	}
}

func TestPushdownSemanticForVisitOnce(t *testing.T) {
	cat := fixture(t)
	// Even with DisablePushdown, a VisitGlobal scan must push (semantic).
	op := planFor(t, cat, Options{DisablePushdown: true},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Edges[0..*].w > 0.5 AND PS.Length = 2")
	pp := findPathScan(op)
	if len(pp.Spec.EdgeFilters) != 1 {
		t.Fatalf("visit-once scan did not push semantic filter")
	}
	// An ALLPATHS scan with DisablePushdown leaves the predicate residual.
	op = planFor(t, cat, Options{DisablePushdown: true},
		"SELECT PS FROM Social.Paths PS HINT(ALLPATHS) WHERE PS.StartVertex.Id = 1 AND PS.Edges[0..*].w > 0.5 AND PS.Length = 2")
	pp = findPathScan(op)
	if len(pp.Spec.EdgeFilters) != 0 {
		t.Fatalf("per-path scan pushed despite DisablePushdown: %+v", pp.Spec.EdgeFilters)
	}
	plan := exec.Explain(op)
	if !strings.Contains(plan, "Filter") {
		t.Errorf("residual filter missing:\n%s", plan)
	}
}

func TestAggBoundPushdown(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND SUM(PS.Edges.w) < 3 AND PS.Length <= 4")
	pp := findPathScan(op)
	if len(pp.Spec.AggBounds) != 1 || pp.Spec.AggBounds[0].Agg != "SUM" {
		t.Fatalf("agg bounds: %+v", pp.Spec.AggBounds)
	}
	// Flipped form: 3 > SUM(...).
	op = planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND 3 > SUM(PS.Edges.w) AND PS.Length <= 4")
	pp = findPathScan(op)
	if len(pp.Spec.AggBounds) != 1 {
		t.Fatalf("flipped agg bound not pushed")
	}
	// The bound must ALSO remain as a residual filter (exactness).
	plan := exec.Explain(op)
	if !strings.Contains(plan, "SUM") || !strings.Contains(plan, "Filter") {
		t.Errorf("agg residual missing:\n%s", plan)
	}
}

func TestCycleDetectionSelectsPerPathDFS(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{}, `
		SELECT COUNT(P) FROM Social.Paths P
		WHERE P.Length = 3 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`)
	pp := findPathScan(op)
	if !pp.Spec.CycleClose {
		t.Fatal("cycle closure not detected")
	}
	if pp.Spec.Policy != graph.VisitPerPath {
		t.Error("cycle pattern must use per-path policy")
	}
	if pp.Spec.Phys != exec.PhysDFS {
		t.Errorf("phys = %v, want DFScan for pattern matching", pp.Spec.Phys)
	}
	if pp.Spec.MinLen != 3 || pp.Spec.MaxLen != 3 {
		t.Errorf("len=[%d,%d]", pp.Spec.MinLen, pp.Spec.MaxLen)
	}
}

func TestShortestPathHint(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{}, `
		SELECT TOP 2 PS FROM Social.Paths PS HINT(SHORTESTPATH(w))
		WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5`)
	pp := findPathScan(op)
	if pp.Spec.Phys != exec.PhysSP || pp.Spec.WeightAttr != "w" || pp.Spec.KPaths != 2 {
		t.Fatalf("SP spec: %+v", pp.Spec)
	}
	if err := planErr(t, cat, `SELECT PS FROM Social.Paths PS HINT(SHORTESTPATH(nosuch)) WHERE PS.StartVertex.Id = 1`); err == nil {
		t.Error("bad weight attr accepted")
	}
}

func TestMemoryRuleSelectsBFSForTinyFanOut(t *testing.T) {
	// F^L < F·L only for F < some small bound; a chain has F ≈ 1.
	cat := catalog.New()
	vt, _ := storage.NewTable("N", types.NewSchema(
		types.Column{Qualifier: "N", Name: "nid", Type: types.KindInt}), []int{0})
	et, _ := storage.NewTable("E", types.NewSchema(
		types.Column{Qualifier: "E", Name: "eid", Type: types.KindInt},
		types.Column{Qualifier: "E", Name: "a", Type: types.KindInt},
		types.Column{Qualifier: "E", Name: "b", Type: types.KindInt}), []int{0})
	for i := int64(1); i <= 6; i++ {
		vt.Insert(types.Row{types.NewInt(i)})
	}
	for i := int64(1); i < 6; i++ {
		et.Insert(types.Row{types.NewInt(i), types.NewInt(i), types.NewInt(i + 1)})
	}
	cat.CreateTable(vt)
	cat.CreateTable(et)
	gv, err := catalog.NewGraphView("Chain", true, vt, et,
		[]catalog.AttrMap{{Name: "ID", Source: "nid"}},
		[]catalog.AttrMap{{Name: "ID", Source: "eid"}, {Name: "FROM", Source: "a"}, {Name: "TO", Source: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	cat.RegisterGraphView(gv)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Chain.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Length <= 4")
	if pp := findPathScan(op); pp.Spec.Phys != exec.PhysBFS {
		t.Errorf("memory rule: phys %v, want BFS for F<1 fan-out", pp.Spec.Phys)
	}
}

func TestIndexScanSelection(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{}, "SELECT name FROM Users WHERE job = 'Lawyer'")
	if !strings.Contains(exec.Explain(op), "IndexScan") {
		t.Errorf("index not chosen:\n%s", exec.Explain(op))
	}
	// No index on name: sequential scan.
	op = planFor(t, cat, Options{}, "SELECT job FROM Users WHERE name = 'u'")
	if strings.Contains(exec.Explain(op), "IndexScan") {
		t.Errorf("phantom index:\n%s", exec.Explain(op))
	}
}

func TestHashJoinVsNestedLoop(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT * FROM Users U, Friends F WHERE U.uid = F.a")
	if !strings.Contains(exec.Explain(op), "HashJoin") {
		t.Errorf("equi-join not hashed:\n%s", exec.Explain(op))
	}
	op = planFor(t, cat, Options{},
		"SELECT * FROM Users U, Friends F WHERE U.uid < F.a")
	if !strings.Contains(exec.Explain(op), "NestedLoopJoin") {
		t.Errorf("theta join not NLJ:\n%s", exec.Explain(op))
	}
}

func TestMaterializeJoinsOption(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{MaterializeJoins: true},
		"SELECT * FROM Users U, Friends F WHERE U.uid = F.a")
	if !strings.Contains(exec.Explain(op), "Materialize") {
		t.Errorf("no temp-table barrier:\n%s", exec.Explain(op))
	}
}

func TestPlanErrors(t *testing.T) {
	cat := fixture(t)
	for _, q := range []string{
		"SELECT * FROM Ghost",
		"SELECT * FROM Users U, Users U", // duplicate alias
		"SELECT ghost FROM Users",
		"SELECT U.name FROM Users U GROUP BY U.job", // non-grouped column
		"SELECT PS.Edges[0..*].w FROM Social.Paths PS WHERE PS.StartVertex.Id = 1", // quantified outside predicate
	} {
		planErr(t, cat, q)
	}
}

func TestContradictoryLengthWindowIsEmpty(t *testing.T) {
	cat := fixture(t)
	op := planFor(t, cat, Options{},
		"SELECT PS FROM Social.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 AND PS.Edges[3..*].w > 0")
	pp := findPathScan(op)
	if pp.Spec.MaxLen >= pp.Spec.MinLen {
		t.Errorf("contradiction not detected: len=[%d,%d]", pp.Spec.MinLen, pp.Spec.MaxLen)
	}
}
