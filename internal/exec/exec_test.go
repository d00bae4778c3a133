package exec

import (
	"strings"
	"testing"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// newTable builds a table with schema (id BIGINT PK, grp VARCHAR, val BIGINT)
// and n rows: (i, "g<i%3>", i*10).
func newTable(t *testing.T, name string, n int) *storage.Table {
	t.Helper()
	tb, err := storage.NewTable(name, types.NewSchema(
		types.Column{Qualifier: name, Name: "id", Type: types.KindInt},
		types.Column{Qualifier: name, Name: "grp", Type: types.KindString},
		types.Column{Qualifier: name, Name: "val", Type: types.KindInt},
	), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"g0", "g1", "g2"}
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(types.Row{
			types.NewInt(int64(i)), types.NewString(groups[i%3]), types.NewInt(int64(i * 10)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func col(t *testing.T, s *types.Schema, qual, name string) *expr.ColumnRef {
	t.Helper()
	b := expr.NewBinder(s)
	e, err := b.Bind(&expr.ColumnRef{Qualifier: qual, Name: name, Idx: -1})
	if err != nil {
		t.Fatal(err)
	}
	return e.(*expr.ColumnRef)
}

func intLit(i int64) *expr.Literal { return &expr.Literal{Val: types.NewInt(i)} }

func collect(t *testing.T, op Operator) []types.Row {
	t.Helper()
	rows, err := Collect(NewContext(0), op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestSingleton(t *testing.T) {
	rows := collect(t, Singleton{})
	if len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("singleton: %v", rows)
	}
}

func TestSeqScanWithFilter(t *testing.T) {
	tb := newTable(t, "t", 10)
	scan := NewTableScan(tb, "t", Access{}, nil)
	if got := len(collect(t, scan)); got != 10 {
		t.Fatalf("unfiltered: %d", got)
	}
	pred := &expr.BinaryExpr{Op: expr.OpGe, L: col(t, scan.Schema(), "t", "val"), R: intLit(50)}
	rows := collect(t, NewTableScan(tb, "t", Access{}, pred))
	if len(rows) != 5 {
		t.Fatalf("filtered: %d", len(rows))
	}
}

func TestIndexScan(t *testing.T) {
	tb := newTable(t, "t", 9)
	ix, err := tb.CreateIndex("byGrp", []int{1}, false)
	if err != nil {
		t.Fatal(err)
	}
	g1 := &expr.Literal{Val: types.NewString("g1")}
	point := Access{Index: ix, Lo: g1, Hi: g1, LoInc: true, HiInc: true}
	scan := NewTableScan(tb, "t", point, nil)
	rows := collect(t, scan)
	if len(rows) != 3 {
		t.Fatalf("index rows: %d", len(rows))
	}
	for _, r := range rows {
		if r[1].S != "g1" {
			t.Fatalf("wrong group: %v", r)
		}
	}
	// With an extra residual filter.
	pred := &expr.BinaryExpr{Op: expr.OpGt, L: col(t, scan.Schema(), "t", "id"), R: intLit(1)}
	rows = collect(t, NewTableScan(tb, "t", point, pred))
	if len(rows) != 2 {
		t.Fatalf("index+filter rows: %d", len(rows))
	}
}

func TestProjectAndLimit(t *testing.T) {
	tb := newTable(t, "t", 6)
	scan := NewTableScan(tb, "t", Access{}, nil)
	proj := NewProject(scan,
		[]expr.Expr{&expr.BinaryExpr{Op: expr.OpAdd, L: col(t, scan.Schema(), "t", "id"), R: intLit(100)}},
		types.NewSchema(types.Column{Name: "x", Type: types.KindInt}))
	rows := collect(t, NewLimit(proj, 3, 1))
	if len(rows) != 3 || rows[0][0].I != 101 {
		t.Fatalf("project+limit: %v", rows)
	}
	// Limit 0 yields nothing; negative N means unlimited.
	if got := len(collect(t, NewLimit(proj, 0, 0))); got != 0 {
		t.Fatalf("limit 0: %d", got)
	}
	if got := len(collect(t, NewLimit(proj, -1, 4))); got != 2 {
		t.Fatalf("offset only: %d", got)
	}
}

func TestSortAscDescStable(t *testing.T) {
	tb := newTable(t, "t", 7)
	scan := NewTableScan(tb, "t", Access{}, nil)
	rows := collect(t, NewSort(scan, []SortKey{
		{E: col(t, scan.Schema(), "t", "grp")},
		{E: col(t, scan.Schema(), "t", "id"), Desc: true},
	}))
	if len(rows) != 7 {
		t.Fatal("lost rows")
	}
	// Groups ascending; within group ids descending.
	if rows[0][1].S != "g0" || rows[0][0].I != 6 {
		t.Fatalf("first: %v", rows[0])
	}
	last := rows[len(rows)-1]
	if last[1].S != "g2" || last[0].I != 2 {
		t.Fatalf("last: %v", last)
	}
}

func TestDistinctOp(t *testing.T) {
	tb := newTable(t, "t", 9)
	scan := NewTableScan(tb, "t", Access{}, nil)
	proj := NewProject(scan, []expr.Expr{col(t, scan.Schema(), "t", "grp")},
		types.NewSchema(types.Column{Name: "grp", Type: types.KindString}))
	rows := collect(t, NewDistinct(proj))
	if len(rows) != 3 {
		t.Fatalf("distinct: %v", rows)
	}
}

func TestHashJoinBasics(t *testing.T) {
	a := newTable(t, "a", 6)
	b := newTable(t, "b", 4)
	sa := NewTableScan(a, "a", Access{}, nil)
	sb := NewTableScan(b, "b", Access{}, nil)
	j := NewHashJoin(sa, sb,
		[]expr.Expr{col(t, sa.Schema(), "a", "id")},
		[]expr.Expr{col(t, sb.Schema(), "b", "id")}, nil)
	rows := collect(t, j)
	if len(rows) != 4 {
		t.Fatalf("join rows: %d", len(rows))
	}
	if len(rows[0]) != 6 {
		t.Fatalf("join width: %d", len(rows[0]))
	}
	// Residual predicate filters matches.
	j2 := NewHashJoin(sa, sb,
		[]expr.Expr{col(t, sa.Schema(), "a", "id")},
		[]expr.Expr{col(t, sb.Schema(), "b", "id")},
		&expr.BinaryExpr{Op: expr.OpGt, L: col(t, j.Schema(), "a", "val"), R: intLit(10)})
	if got := len(collect(t, j2)); got != 2 {
		t.Fatalf("residual join rows: %d", got)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	a, _ := storage.NewTable("a", types.NewSchema(
		types.Column{Qualifier: "a", Name: "k", Type: types.KindInt}), nil)
	a.Insert(types.Row{types.Null()})
	a.Insert(types.Row{types.NewInt(1)})
	b, _ := storage.NewTable("b", types.NewSchema(
		types.Column{Qualifier: "b", Name: "k", Type: types.KindInt}), nil)
	b.Insert(types.Row{types.Null()})
	b.Insert(types.Row{types.NewInt(1)})
	sa, sb := NewTableScan(a, "a", Access{}, nil), NewTableScan(b, "b", Access{}, nil)
	j := NewHashJoin(sa, sb,
		[]expr.Expr{col(t, sa.Schema(), "a", "k")},
		[]expr.Expr{col(t, sb.Schema(), "b", "k")}, nil)
	rows := collect(t, j)
	if len(rows) != 1 {
		t.Fatalf("null keys joined: %v", rows)
	}
}

func TestNestedLoopJoinCross(t *testing.T) {
	a := newTable(t, "a", 3)
	b := newTable(t, "b", 4)
	j := NewNestedLoopJoin(NewTableScan(a, "a", Access{}, nil), NewTableScan(b, "b", Access{}, nil), nil)
	if got := len(collect(t, j)); got != 12 {
		t.Fatalf("cross rows: %d", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	a := newTable(t, "a", 50)
	b := newTable(t, "b", 50)
	j := NewNestedLoopJoin(NewTableScan(a, "a", Access{}, nil), NewTableScan(b, "b", Access{}, nil), nil)
	ctx := NewContext(128) // tiny budget
	if _, err := Collect(ctx, j); err == nil || !strings.Contains(err.Error(), "memory limit") {
		t.Fatalf("expected memory abort, got %v", err)
	}
	// Budget is released after Close: a fresh small query succeeds.
	ctx2 := NewContext(1 << 20)
	if _, err := Collect(ctx2, j); err != nil {
		t.Fatal(err)
	}
	if ctx2.MemUsed() != 0 {
		t.Errorf("memory not released: %d", ctx2.MemUsed())
	}
}

func TestMaterializeOp(t *testing.T) {
	tb := newTable(t, "t", 5)
	m := NewMaterialize(NewTableScan(tb, "t", Access{}, nil))
	rows := collect(t, m)
	if len(rows) != 5 {
		t.Fatalf("materialize rows: %d", len(rows))
	}
	ctx := NewContext(16)
	if _, err := Collect(ctx, m); err == nil {
		t.Fatal("materialize ignored the budget")
	}
}

func TestHashAggregateGroups(t *testing.T) {
	tb := newTable(t, "t", 9)
	scan := NewTableScan(tb, "t", Access{}, nil)
	agg := NewHashAggregate(scan,
		[]expr.Expr{col(t, scan.Schema(), "t", "grp")},
		[]AggSpec{
			{Name: "COUNT"},
			{Name: "SUM", Arg: col(t, scan.Schema(), "t", "val")},
			{Name: "MIN", Arg: col(t, scan.Schema(), "t", "id")},
		},
		types.NewSchema(
			types.Column{Name: "grp", Type: types.KindString},
			types.Column{Name: "n", Type: types.KindInt},
			types.Column{Name: "s", Type: types.KindInt},
			types.Column{Name: "m", Type: types.KindInt},
		))
	rows := collect(t, agg)
	if len(rows) != 3 {
		t.Fatalf("groups: %v", rows)
	}
	// First-seen order: g0 first (id 0).
	if rows[0][0].S != "g0" || rows[0][1].I != 3 || rows[0][2].I != 90 || rows[0][3].I != 0 {
		t.Fatalf("g0 aggregate: %v", rows[0])
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	tb := newTable(t, "t", 0)
	scan := NewTableScan(tb, "t", Access{}, nil)
	agg := NewHashAggregate(scan, nil,
		[]AggSpec{{Name: "COUNT"}},
		types.NewSchema(types.Column{Name: "n", Type: types.KindInt}))
	rows := collect(t, agg)
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Fatalf("empty global agg: %v", rows)
	}
}

func TestExplainTreeRendering(t *testing.T) {
	tb := newTable(t, "t", 3)
	scan := NewTableScan(tb, "t", Access{}, nil)
	lim := NewLimit(NewFilter(scan, &expr.Literal{Val: types.NewBool(true)}), 1, 0)
	out := Explain(nil, lim)
	if !strings.Contains(out, "Limit") || !strings.Contains(out, "  Filter") ||
		!strings.Contains(out, "    SeqScan") {
		t.Errorf("explain:\n%s", out)
	}
}

// graphFixture builds a tiny social graph view for graph-operator tests.
func graphFixture(t *testing.T) *catalog.GraphView {
	t.Helper()
	vt, _ := storage.NewTable("v", types.NewSchema(
		types.Column{Qualifier: "v", Name: "vid", Type: types.KindInt},
		types.Column{Qualifier: "v", Name: "name", Type: types.KindString},
	), []int{0})
	et, _ := storage.NewTable("e", types.NewSchema(
		types.Column{Qualifier: "e", Name: "eid", Type: types.KindInt},
		types.Column{Qualifier: "e", Name: "src", Type: types.KindInt},
		types.Column{Qualifier: "e", Name: "dst", Type: types.KindInt},
		types.Column{Qualifier: "e", Name: "w", Type: types.KindInt},
	), []int{0})
	for i := int64(1); i <= 4; i++ {
		vt.Insert(types.Row{types.NewInt(i), types.NewString("v" + types.NewInt(i).String())})
	}
	// 1->2->3->4 and shortcut 1->4 with weights 1,1,1,10.
	edges := [][4]int64{{1, 1, 2, 1}, {2, 2, 3, 1}, {3, 3, 4, 1}, {4, 1, 4, 10}}
	for _, e := range edges {
		et.Insert(types.Row{types.NewInt(e[0]), types.NewInt(e[1]), types.NewInt(e[2]), types.NewInt(e[3])})
	}
	gv, err := catalog.NewGraphView("G", true, vt, et,
		[]catalog.AttrMap{{Name: "ID", Source: "vid"}, {Name: "name", Source: "name"}},
		[]catalog.AttrMap{{Name: "ID", Source: "eid"}, {Name: "FROM", Source: "src"},
			{Name: "TO", Source: "dst"}, {Name: "w", Source: "w"}})
	if err != nil {
		t.Fatal(err)
	}
	return gv
}

// attrRef resolves a fixture attribute as the planner would.
func attrRef(t *testing.T, gv *catalog.GraphView, elem expr.ElemKind, name string) expr.AttrRef {
	t.Helper()
	ref, err := gv.ResolveAttr(elem, name)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestVertexAndEdgeScanOps(t *testing.T) {
	gv := graphFixture(t)
	vs := NewElemScan(gv, expr.ElemVertexes, "VS", nil)
	rows := collect(t, vs)
	if len(rows) != 4 {
		t.Fatalf("vertex rows: %d", len(rows))
	}
	// Schema: ID, name, FANOUT, FANIN.
	if len(rows[0]) != 4 || rows[0][0].I != 1 || rows[0][2].I != 2 {
		t.Fatalf("vertex row: %v", rows[0])
	}
	es := NewElemScan(gv, expr.ElemEdges, "ES", nil)
	erows := collect(t, es)
	if len(erows) != 4 || len(erows[0]) != 4 {
		t.Fatalf("edge rows: %v", erows)
	}
}

func TestPathProbeJoinStandalone(t *testing.T) {
	gv := graphFixture(t)
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysDFS, MinLen: 1, MaxLen: 3, KPaths: 1,
		StartExpr: intLit(1),
	}
	pp := NewPathProbeJoin(Singleton{}, spec, nil)
	rows := collect(t, pp)
	// Visit-once DFS from 1 over 1->2->3->4 plus 1->4: tree paths.
	if len(rows) == 0 {
		t.Fatal("no paths")
	}
	for _, r := range rows {
		if r[len(r)-1].Kind != types.KindPath {
			t.Fatalf("missing path column: %v", r)
		}
	}
}

func TestPathProbeJoinOuterProbes(t *testing.T) {
	gv := graphFixture(t)
	// Outer: vertex scan restricted to id 1 and 2; each probes a traversal.
	vs := NewElemScan(gv, expr.ElemVertexes, "VS", &expr.BinaryExpr{Op: expr.OpLe,
		L: col(t, gv.VertexSchema().WithQualifier("VS"), "VS", "ID"), R: intLit(2)})
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysBFS, MinLen: 1, MaxLen: 1, KPaths: 1,
		StartExpr: col(t, vs.Schema(), "VS", "ID"),
	}
	pp := NewPathProbeJoin(vs, spec, nil)
	rows := collect(t, pp)
	// From 1: edges to 2 and 4; from 2: edge to 3 => 3 length-1 paths.
	if len(rows) != 3 {
		t.Fatalf("probe rows: %d", len(rows))
	}
}

func TestPathProbeJoinSPWithKPaths(t *testing.T) {
	gv := graphFixture(t)
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysSP, MinLen: 1, WeightAttr: "w", Weight: attrRef(t, gv, expr.ElemEdges, "w"), KPaths: 2,
		StartExpr: intLit(1), EndExpr: intLit(4),
	}
	pp := NewPathProbeJoin(Singleton{}, spec, nil)
	rows := collect(t, pp)
	if len(rows) != 2 {
		t.Fatalf("k-shortest rows: %d", len(rows))
	}
	p0 := rows[0][0].Ref
	p1 := rows[1][0].Ref
	if p0 == nil || p1 == nil {
		t.Fatal("nil paths")
	}
}

func TestPathProbeEdgeFilterPushdown(t *testing.T) {
	gv := graphFixture(t)
	// Filter w < 5 on every position kills the 1->4 shortcut.
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysDFS, MinLen: 1, MaxLen: 1, KPaths: 1,
		StartExpr: intLit(1),
		EdgeFilters: []ElemFilter{{
			Elem: expr.ElemEdges, Rng: expr.Rng{Start: 0, Wildcard: true},
			Attr: "w", Ref: attrRef(t, gv, expr.ElemEdges, "w"), Op: expr.OpLt, Other: intLit(5),
		}},
	}
	rows := collect(t, NewPathProbeJoin(Singleton{}, spec, nil))
	if len(rows) != 1 {
		t.Fatalf("filtered paths: %d", len(rows))
	}
}

func TestContextCounters(t *testing.T) {
	gv := graphFixture(t)
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysBFS, MinLen: 1, KPaths: 1,
		StartExpr: intLit(1),
	}
	ctx := NewContext(0)
	rows, err := Collect(ctx, NewPathProbeJoin(Singleton{}, spec, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.PathsEmitted != int64(len(rows)) {
		t.Errorf("paths emitted %d != rows %d", ctx.PathsEmitted, len(rows))
	}
	if ctx.EdgesTraversed == 0 {
		t.Error("edge counter never incremented")
	}
}

func TestIndexRangeScanOp(t *testing.T) {
	tb := newTable(t, "t", 10)
	ix, err := tb.CreateIndex("ord", []int{2}, true)
	if err != nil {
		t.Fatal(err)
	}
	// [30, 60) → vals 30, 40, 50.
	rs := NewTableScan(tb, "t", Access{Index: ix, Lo: intLit(30), Hi: intLit(60), LoInc: true}, nil)
	rows := collect(t, rs)
	if len(rows) != 3 || rows[0][2].I != 30 || rows[2][2].I != 50 {
		t.Fatalf("range rows: %v", rows)
	}
	// Open-ended low bound with residual filter.
	pred := &expr.BinaryExpr{Op: expr.OpGt, L: col(t, rs.Schema(), "t", "id"), R: intLit(7)}
	rs = NewTableScan(tb, "t", Access{Index: ix}, pred)
	if got := len(collect(t, rs)); got != 2 {
		t.Fatalf("filtered range rows: %d", got)
	}
	if !strings.Contains(rs.Explain(nil), "IndexRangeScan") {
		t.Errorf("explain: %s", rs.Explain(nil))
	}
	// Exclusive bounds.
	rs = NewTableScan(tb, "t", Access{Index: ix, Lo: intLit(30), Hi: intLit(60)}, nil)
	if got := len(collect(t, rs)); got != 2 {
		t.Fatalf("exclusive range rows: %d", got)
	}
}

func TestExplainStringsCoverOperators(t *testing.T) {
	tb := newTable(t, "t", 2)
	gv := graphFixture(t)
	sa := NewTableScan(tb, "t", Access{}, nil)
	ops := []Operator{
		NewHashJoin(sa, NewTableScan(tb, "u", Access{}, nil),
			[]expr.Expr{col(t, sa.Schema(), "t", "id")},
			[]expr.Expr{col(t, sa.Schema(), "t", "id")},
			&expr.Literal{Val: types.NewBool(true)}),
		NewNestedLoopJoin(sa, sa, nil),
		NewNestedLoopJoin(sa, sa, &expr.Literal{Val: types.NewBool(true)}),
		NewMaterialize(sa),
		NewHashAggregate(sa, []expr.Expr{col(t, sa.Schema(), "t", "grp")},
			[]AggSpec{{Name: "COUNT"}, {Name: "SUM", Arg: col(t, sa.Schema(), "t", "val")}},
			types.NewSchema(types.Column{Name: "g"}, types.Column{Name: "n"}, types.Column{Name: "s"})),
		NewPathProbeJoin(Singleton{}, PathScanSpec{
			View: gv, Alias: "P", Phys: PhysSP, MinLen: 1, MaxLen: 3, WeightAttr: "w",
			KPaths: 2, StartExpr: intLit(1), EndExpr: intLit(4), CycleClose: true,
			Policy:      graph.VisitPerPath,
			EdgeFilters: []ElemFilter{{Elem: expr.ElemEdges, Attr: "w", Op: expr.OpLt, Other: intLit(5)}},
			AggBounds:   []AggBound{{Agg: "SUM", Op: expr.OpLt, Bound: intLit(9)}},
		}, &expr.Literal{Val: types.NewBool(true)}),
	}
	for _, op := range ops {
		if op.Explain(nil) == "" {
			t.Errorf("%T: empty explain", op)
		}
		if op.Schema() == nil {
			t.Errorf("%T: nil schema", op)
		}
		_ = op.Children()
	}
	for _, ph := range []Phys{PhysDFS, PhysBFS, PhysSP} {
		if ph.String() == "" {
			t.Error("empty phys name")
		}
	}
	f := ElemFilter{Elem: expr.ElemVertexes, Attr: "x", IsIn: true}
	if !strings.Contains(f.String(), "Vertexes") {
		t.Errorf("filter string: %s", f.String())
	}
}

func TestPathProbeAggBoundPrunes(t *testing.T) {
	gv := graphFixture(t)
	// SUM(w) < 3 admits only the first hop (w=1) and the second (1+1=2);
	// the third hop (sum 3) and the shortcut (10) are pruned.
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysDFS, MinLen: 1, KPaths: 1,
		StartExpr: intLit(1),
		AggBounds: []AggBound{{Agg: "SUM", Elem: expr.ElemEdges, Ref: attrRef(t, gv, expr.ElemEdges, "w"),
			Op: expr.OpLt, Bound: intLit(3)}},
	}
	rows := collect(t, NewPathProbeJoin(Singleton{}, spec, nil))
	if len(rows) != 2 {
		t.Fatalf("agg-bound paths: %d", len(rows))
	}
	// COUNT bound behaves like a length cap.
	spec.AggBounds = []AggBound{{Agg: "COUNT", Elem: expr.ElemEdges,
		Op: expr.OpLe, Bound: intLit(1)}}
	rows = collect(t, NewPathProbeJoin(Singleton{}, spec, nil))
	if len(rows) != 2 { // 1->2 and 1->4
		t.Fatalf("count-bound paths: %d", len(rows))
	}
}

func TestPathProbeVertexFilterAndIn(t *testing.T) {
	gv := graphFixture(t)
	// Vertex filter: only vertices named v1..v3 pass (blocks v4).
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysBFS, MinLen: 1, KPaths: 1,
		StartExpr: intLit(1),
		VertexFilters: []ElemFilter{{
			Elem: expr.ElemVertexes, Rng: expr.Rng{Start: 0, Wildcard: true},
			Attr: "name", Ref: attrRef(t, gv, expr.ElemVertexes, "name"), IsIn: true,
			List: []expr.Expr{
				&expr.Literal{Val: types.NewString("v1")},
				&expr.Literal{Val: types.NewString("v2")},
				&expr.Literal{Val: types.NewString("v3")},
			},
		}},
	}
	rows := collect(t, NewPathProbeJoin(Singleton{}, spec, nil))
	// 1->2 and 1->2->3 only (both edges to 4 are blocked at the vertex).
	if len(rows) != 2 {
		t.Fatalf("vertex-filtered paths: %d", len(rows))
	}
}

func TestPathProbeMissingEndpoints(t *testing.T) {
	gv := graphFixture(t)
	// Unknown start: no paths, no error.
	spec := PathScanSpec{View: gv, Alias: "P", Phys: PhysDFS, MinLen: 1, KPaths: 1,
		StartExpr: intLit(99)}
	if got := len(collect(t, NewPathProbeJoin(Singleton{}, spec, nil))); got != 0 {
		t.Fatalf("missing start: %d rows", got)
	}
	// Unknown target short-circuits the whole probe.
	spec = PathScanSpec{View: gv, Alias: "P", Phys: PhysBFS, MinLen: 1, KPaths: 1,
		StartExpr: intLit(1), EndExpr: intLit(99)}
	if got := len(collect(t, NewPathProbeJoin(Singleton{}, spec, nil))); got != 0 {
		t.Fatalf("missing target: %d rows", got)
	}
}

func TestPathProbeResidualFilter(t *testing.T) {
	gv := graphFixture(t)
	spec := PathScanSpec{View: gv, Alias: "P", Phys: PhysDFS, MinLen: 1, MaxLen: 2, KPaths: 1,
		StartExpr: intLit(1)}
	pp := NewPathProbeJoin(Singleton{}, spec, nil)
	// Residual over the path column: only length-2 paths.
	residual, err := expr.NewBinder(pp.Schema()).
		WithPath("P", expr.PathBinding{Col: 0, View: gv}).
		Bind(&expr.BinaryExpr{Op: expr.OpEq,
			L: &expr.PathProperty{Alias: "P", Prop: expr.PropLength},
			R: intLit(2)})
	if err != nil {
		t.Fatal(err)
	}
	pp2 := NewPathProbeJoin(Singleton{}, spec, residual)
	all := collect(t, pp)
	filtered := collect(t, pp2)
	if len(filtered) >= len(all) || len(filtered) == 0 {
		t.Fatalf("residual: %d of %d", len(filtered), len(all))
	}
}
