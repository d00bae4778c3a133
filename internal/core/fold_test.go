package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// foldCase is one analytics function and the result columns an aggregate
// over it may fold.
type foldCase struct {
	call string
	cols []string // result columns, ID first
	memo bool     // the function memoizes its result on the version
}

var foldCases = []foldCase{
	{"PAGERANK(0.85, 20)", []string{"ID", "rank"}, true},
	{"CONNECTED_COMPONENTS()", []string{"ID", "component"}, true},
	{"LABEL_PROPAGATION(10)", []string{"ID", "label"}, true},
	{"DEGREE_CENTRALITY()", []string{"ID", "out_degree", "in_degree"}, false},
}

// foldAgg is one aggregate of a fold query; col < 0 is COUNT(*).
type foldAgg struct {
	name string
	col  int
}

// foldQuery returns the query folding every aggregate over every column
// of fc (plus COUNT(*)), and the aggregates in select-list order.
func foldQuery(fc foldCase) (string, []foldAgg) {
	aggs := []foldAgg{{"COUNT", -1}}
	items := []string{"COUNT(*)"}
	for j, c := range fc.cols {
		for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			aggs = append(aggs, foldAgg{name, j})
			items = append(items, fmt.Sprintf("%s(X.%s)", name, c))
		}
	}
	return fmt.Sprintf("SELECT %s FROM Ladder.%s X", strings.Join(items, ", "), fc.call), aggs
}

// goFold folds rows (a SELECT * result, in its row order) with one
// AggState.Add per value: the row path's answer.
func goFold(t *testing.T, rows []types.Row, aggs []foldAgg) types.Row {
	t.Helper()
	out := make(types.Row, len(aggs))
	for i, a := range aggs {
		st := expr.NewAggState(a.name)
		for _, r := range rows {
			v := types.NewInt(1)
			if a.col >= 0 {
				v = r[a.col]
			}
			if err := st.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		out[i] = st.Result()
	}
	return out
}

// sameRowBits reports whether two rows hold the same kinds and bits.
func sameRowBits(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// selectAt runs a SELECT at a pinned version, through p's plan when p is
// not nil.
func selectAt(t *testing.T, e *Engine, st *dbState, q string, p *Prepared) *Result {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if p != nil {
		var op exec.Operator
		if op, err = p.planOn(st); err == nil {
			res, _, err = e.runSelect(context.Background(), st, op, p.cols, nil)
		}
	} else {
		res, err = selectOn(context.Background(), e, st, stmt.(*sql.Select), nil)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// selectOn plans s under st's catalog and runs it on st, below the statement
// path's entry checks.
func selectOn(ctx context.Context, e *Engine, st *dbState, s *sql.Select, params []types.Value) (*Result, error) {
	op, err := e.planner(st.cat).PlanSelect(s)
	if err != nil {
		return nil, err
	}
	res, _, err := e.runSelect(ctx, st, op, columnNames(op), params)
	return res, err
}

// TestAnalyticsFoldMatchesRows: an aggregate folded into an analytics scan
// returns, bit for bit, what AggState.Add returns over the same version's
// SELECT * rows — for every function, every foldable aggregate of every
// column, on a memo miss and a memo hit, ad hoc and prepared, on a version
// whose delta numbers vertexes out of identifier order, and for a reader
// pinned across an edge write.
func TestAnalyticsFoldMatchesRows(t *testing.T) {
	for _, fc := range foldCases {
		t.Run(fc.call, func(t *testing.T) {
			q, aggs := foldQuery(fc)
			star := "SELECT * FROM Ladder." + fc.call + " X"
			e := ladderEngine(t, 300, 2)
			// Fan vertex 10 out, so no two columns fold alike.
			mustExec(t, e, `INSERT INTO E VALUES (90000, 10, 20, 0.5), (90001, 10, 30, 0.5), (90002, 10, 40, 0.5)`)
			if p := planText(mustExec(t, e, "EXPLAIN "+q)); !strings.Contains(p, "AnalyticsScan Ladder."+fc.call+" fold=COUNT(*), COUNT(X.ID)") ||
				strings.Contains(p, "HashAggregate") {
				t.Fatalf("the aggregate does not fold:\n%s", p)
			}
			prep, err := e.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got *Result, rows []types.Row) {
				t.Helper()
				want := goFold(t, rows, aggs)
				if len(got.Rows) != 1 || !sameRowBits(got.Rows[0], want) {
					t.Fatalf("%s: folded %v, row path %v", what, got.Rows, want)
				}
			}
			// hits runs f and fails unless it moved analytics.memo_hits
			// by want (memoizing functions only).
			hits := func(what string, want int64, f func() *Result) *Result {
				t.Helper()
				h := metricValue(e, "analytics.memo_hits")
				r := f()
				if got := metricValue(e, "analytics.memo_hits") - h; fc.memo && got != want {
					t.Fatalf("%s: %d memo hits, want %d", what, got, want)
				}
				return r
			}
			query := func() *Result {
				r, err := prep.Query()
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			adhoc := func() *Result { return mustExec(t, e, q) }

			// Version 1: an ad hoc miss, an ad hoc and a prepared hit.
			miss := hits("ad hoc miss", 0, adhoc)
			hit := hits("ad hoc hit", 1, adhoc)
			phit := hits("prepared hit", 1, query)
			rows := mustExec(t, e, star).Rows
			check("ad hoc miss", miss, rows)
			check("ad hoc hit", hit, rows)
			check("prepared hit", phit, rows)

			// A reader pinned to version 1 across an edge write, and a
			// new vertex that the delta numbers out of identifier order.
			st := e.pin()
			defer e.unpin(st)
			mustScript(t, e, `INSERT INTO V VALUES (-5, 'first');
				INSERT INTO E VALUES (100000, -5, 0, 1.5), (100001, 7, -5, 1.5), (100002, 250, 3, 1.5)`)

			// Version 2: a prepared miss, then an ad hoc hit.
			pmiss := hits("prepared miss", 0, query)
			hit2 := hits("ad hoc hit, version 2", 1, adhoc)
			rows2 := mustExec(t, e, star).Rows
			if sameRowBits(goFold(t, rows, aggs), goFold(t, rows2, aggs)) {
				t.Fatal("the write left the folded answer unchanged: the test cannot tell the versions apart")
			}
			check("prepared miss, version 2", pmiss, rows2)
			check("ad hoc hit, version 2", hit2, rows2)

			// The pinned reader sees its own version's answer, ad hoc and
			// prepared.
			check("pinned ad hoc", selectAt(t, e, st, q, nil), rows)
			check("pinned prepared", selectAt(t, e, st, q, prep), rows)
		})
	}
}

// TestAnalyticsFoldShapes: HAVING filters the folded row; the shapes that
// must not fold — GROUP BY, DISTINCT, an expression argument, a pushed
// filter — keep the HashAggregate plan and its answer.
func TestAnalyticsFoldShapes(t *testing.T) {
	e := ladderEngine(t, 300, 2)
	const pr = "Ladder.PAGERANK(0.85, 20)"
	folded := `SELECT COUNT(*), MAX(PR.rank) FROM ` + pr + ` PR HAVING COUNT(*) > 10`
	if p := planText(mustExec(t, e, "EXPLAIN "+folded)); p != "Project __agg0, __agg1\n"+
		"  Filter (__agg0 > 10)\n"+
		"    AnalyticsScan Ladder.PAGERANK(0.85, 20) fold=COUNT(*), MAX(PR.rank)\n" {
		t.Fatalf("HAVING over a fold:\n%s", p)
	}
	rows := mustExec(t, e, `SELECT * FROM `+pr+` PR`).Rows
	want := goFold(t, rows, []foldAgg{{"COUNT", -1}, {"MAX", 1}})
	if got := mustExec(t, e, folded); len(got.Rows) != 1 || !sameRowBits(got.Rows[0], want) {
		t.Fatalf("HAVING that holds: %v, want %v", got.Rows, want)
	}
	if got := mustExec(t, e, strings.Replace(folded, "> 10", "> 300", 1)); len(got.Rows) != 0 {
		t.Fatalf("HAVING that fails: %v, want no row", got.Rows)
	}
	p := planText(mustExec(t, e, `EXPLAIN ANALYZE `+folded))
	if !strings.Contains(p, "memo=hit folded=300") {
		t.Fatalf("EXPLAIN ANALYZE of a folded hit:\n%s", p)
	}

	for _, tc := range []struct{ q, plan string }{
		{`SELECT CC.component, COUNT(*) FROM Ladder.CONNECTED_COMPONENTS() CC GROUP BY CC.component`,
			"Project __group0, __agg0\n" +
				"  HashAggregate CC.component, COUNT(*)\n" +
				"    AnalyticsScan Ladder.CONNECTED_COMPONENTS()\n"},
		{`SELECT COUNT(DISTINCT LP.label) FROM Ladder.LABEL_PROPAGATION(10) LP`,
			"Project __agg0\n" +
				"  HashAggregate COUNT(DISTINCT LP.label)\n" +
				"    AnalyticsScan Ladder.LABEL_PROPAGATION(10)\n"},
		{`SELECT MAX(PR.rank * 2) FROM ` + pr + ` PR`,
			"Project __agg0\n" +
				"  HashAggregate MAX((PR.rank * 2))\n" +
				"    AnalyticsScan Ladder.PAGERANK(0.85, 20)\n"},
		{`SELECT COUNT(*), SUM(DC.out_degree) FROM Ladder.DEGREE_CENTRALITY() DC WHERE DC.in_degree > 1`,
			"Project __agg0, __agg1\n" +
				"  HashAggregate COUNT(*), SUM(DC.out_degree)\n" +
				"    AnalyticsScan Ladder.DEGREE_CENTRALITY() filter=(DC.in_degree > 1)\n"},
	} {
		if p := planText(mustExec(t, e, "EXPLAIN "+tc.q)); p != tc.plan {
			t.Errorf("%s:\n%s\nwant\n%s", tc.q, p, tc.plan)
		}
	}
	// The filtered aggregate still counts the rows its filter keeps.
	var kept int64
	for _, r := range mustExec(t, e, `SELECT * FROM Ladder.DEGREE_CENTRALITY() DC`).Rows {
		if r[2].I > 1 {
			kept++
		}
	}
	if got := mustExec(t, e, `SELECT COUNT(*) FROM Ladder.DEGREE_CENTRALITY() DC WHERE DC.in_degree > 1`); got.Rows[0][0].I != kept {
		t.Fatalf("filtered COUNT(*) = %v, want %d", got.Rows[0][0], kept)
	}
}
