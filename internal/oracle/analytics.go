package oracle

import (
	"fmt"
	"math"
	"strings"

	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// checkAnalytics is the whole-graph analytics differential: every analytics
// table-valued function is cross-checked against the naive pure-Go
// references over an independently rebuilt topology, and any worker-pool
// size must return byte-identical relations.
//
// Integer-valued results (components, labels, degrees) are compared
// exactly: the component rule (smallest vertex id) and the label update
// rule (most frequent neighbor label, ties to the smallest) are functions
// of the neighbor multiset, so edge insertion order cannot change them.
// PageRank is compared within epsilon: the engine's live topology and the
// reference rebuild order adjacency lists differently, so the float sums
// accumulate in different orders.
func (sc *scenario) checkAnalytics(eng *core.Engine, st *datagen.GraphState) *Violation {
	if len(st.Verts) == 0 {
		return nil
	}
	ref := st.Dataset("oracle-analytics").Build()

	const damping, prIters, lpIters = 0.85, 20, 20
	refRanks, _, err := graph.RefPageRank(nil, ref, damping, prIters, 1e-9)
	if err != nil {
		return violationf("analytics-pagerank", "reference: %v", err)
	}
	refComp, _, err := graph.RefComponents(nil, ref)
	if err != nil {
		return violationf("analytics-components", "reference: %v", err)
	}
	refLbl, _, err := graph.RefLabelProp(nil, ref, lpIters)
	if err != nil {
		return violationf("analytics-labelprop", "reference: %v", err)
	}
	refOut, refIn := graph.RefDegrees(ref)

	q := func(call string) string {
		return fmt.Sprintf("SELECT * FROM %s.%s X", sc.gv, call)
	}

	// PageRank vs the reference, within float tolerance.
	res, err := eng.Execute(q(fmt.Sprintf("PAGERANK(%v, %d)", damping, prIters)))
	if err != nil {
		return violationf("analytics-pagerank", "engine: %v", err)
	}
	if len(res.Rows) != len(st.Verts) {
		return violationf("analytics-pagerank", "engine returned %d rows, model has %d vertexes",
			len(res.Rows), len(st.Verts))
	}
	for _, row := range res.Rows {
		id, rank := row[0].I, row[1].F
		want, ok := refRanks[id]
		if !ok {
			return violationf("analytics-pagerank", "engine emitted unknown vertex %d", id)
		}
		if math.Abs(rank-want) > 1e-6 {
			return violationf("analytics-pagerank",
				"rank(%d) = %v, reference %v", id, rank, want)
		}
	}

	// Integer-valued functions vs their references, exactly.
	intChecks := []struct {
		check string
		call  string
		want  func(id int64) []int64
	}{
		{"analytics-components", "CONNECTED_COMPONENTS()",
			func(id int64) []int64 { return []int64{refComp[id]} }},
		{"analytics-labelprop", fmt.Sprintf("LABEL_PROPAGATION(%d)", lpIters),
			func(id int64) []int64 { return []int64{refLbl[id]} }},
		{"analytics-degree", "DEGREE_CENTRALITY()",
			func(id int64) []int64 { return []int64{refOut[id], refIn[id]} }},
	}
	for _, c := range intChecks {
		res, err := eng.Execute(q(c.call))
		if err != nil {
			return violationf(c.check, "engine: %v", err)
		}
		if len(res.Rows) != len(st.Verts) {
			return violationf(c.check, "engine returned %d rows, model has %d vertexes",
				len(res.Rows), len(st.Verts))
		}
		for _, row := range res.Rows {
			id := row[0].I
			if _, ok := refComp[id]; !ok {
				return violationf(c.check, "engine emitted unknown vertex %d", id)
			}
			for j, want := range c.want(id) {
				if got := row[1+j].I; got != want {
					return violationf(c.check, "%s: value[%d] of vertex %d = %d, reference %d",
						c.call, j, id, got, want)
				}
			}
		}
	}

	// Worker invariance: the parallel kernels must return byte-identical
	// relations at any worker count.
	for _, call := range []string{
		fmt.Sprintf("PAGERANK(%v, %d)", damping, prIters),
		"CONNECTED_COMPONENTS()",
		fmt.Sprintf("LABEL_PROPAGATION(%d)", lpIters),
		"DEGREE_CENTRALITY()",
	} {
		eng.SetWorkers(1)
		res1, err1 := eng.Execute(q(call))
		eng.SetWorkers(4)
		res4, err4 := eng.Execute(q(call))
		eng.SetWorkers(sc.workers)
		if err1 != nil || err4 != nil {
			return violationf("analytics-workers", "%s: w1=%v w4=%v", call, err1, err4)
		}
		if !sameRows(renderRows(res1, false), renderRows(res4, false)) {
			return violationf("analytics-workers",
				"%s: results differ between 1 and 4 workers", call)
		}
	}
	return sc.checkAnalyticsFold(eng, damping, prIters, lpIters)
}

// checkAnalyticsFold: an aggregate the planner folds into the analytics
// scan must return, bit for bit, the fold of the function's own SELECT *
// rows by AggState.Add in row order — the answer the row path gives — at 1
// and 4 workers.
func (sc *scenario) checkAnalyticsFold(eng *core.Engine, damping float64, prIters, lpIters int) *Violation {
	defer eng.SetWorkers(sc.workers)
	aggNames := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	for _, fn := range []struct {
		call string
		cols []string
	}{
		{fmt.Sprintf("PAGERANK(%v, %d)", damping, prIters), []string{"ID", "rank"}},
		{"CONNECTED_COMPONENTS()", []string{"ID", "component"}},
		{fmt.Sprintf("LABEL_PROPAGATION(%d)", lpIters), []string{"ID", "label"}},
		{"DEGREE_CENTRALITY()", []string{"ID", "out_degree", "in_degree"}},
	} {
		items := []string{"COUNT(*)"}
		for _, c := range fn.cols {
			for _, a := range aggNames {
				items = append(items, fmt.Sprintf("%s(X.%s)", a, c))
			}
		}
		folded := fmt.Sprintf("SELECT %s FROM %s.%s X", strings.Join(items, ", "), sc.gv, fn.call)
		plan, err := eng.Execute("EXPLAIN " + folded)
		if err != nil {
			return violationf("analytics-fold", "%s: %v", folded, err)
		}
		if !strings.Contains(fmt.Sprint(plan.Rows), " fold=COUNT(*)") {
			return violationf("analytics-fold", "%s: the planner did not fold the aggregate", fn.call)
		}
		for _, workers := range []int{1, 4} {
			eng.SetWorkers(workers)
			rows, err := eng.Execute(fmt.Sprintf("SELECT * FROM %s.%s X", sc.gv, fn.call))
			if err != nil {
				return violationf("analytics-fold", "%s rows: %v", fn.call, err)
			}
			got, err := eng.Execute(folded)
			if err != nil {
				return violationf("analytics-fold", "%s: %v", folded, err)
			}
			want := make([]types.Value, 0, len(items))
			for col := -1; col < len(fn.cols); col++ {
				names := aggNames
				if col < 0 {
					names = []string{"COUNT"} // COUNT(*)
				}
				for _, a := range names {
					st := expr.NewAggState(a)
					for _, r := range rows.Rows {
						v := types.NewInt(1)
						if col >= 0 {
							v = r[col]
						}
						if err := st.Add(v); err != nil {
							return violationf("analytics-fold", "%s: %v", fn.call, err)
						}
					}
					want = append(want, st.Result())
				}
			}
			if len(got.Rows) != 1 || len(got.Rows[0]) != len(want) {
				return violationf("analytics-fold", "%s at %d workers: %d rows", folded, workers, len(got.Rows))
			}
			for i, v := range got.Rows[0] {
				if w := want[i]; v.Kind != w.Kind || v.I != w.I || math.Float64bits(v.F) != math.Float64bits(w.F) {
					return violationf("analytics-fold", "%s at %d workers: %s = %v, its rows fold to %v",
						fn.call, workers, items[i], v, w)
				}
			}
		}
	}
	return nil
}
