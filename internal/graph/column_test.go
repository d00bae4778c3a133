package graph

import (
	"fmt"
	"math"
	"testing"
)

// TestTypedPredsMatchClosure: the CSR kernels emit the same path
// sequences, and ask the closures exactly for the elements the columns do
// not decide, whether a filter runs through its closure alone or through
// typed predicates over edge and vertex columns that leave some entries
// out — over directed and undirected views, on versions with and without
// a delta, for DFScan, BFScan and SPScan, over int and float columns and
// every predicate op.
func TestTypedPredsMatchClosure(t *testing.T) {
	eAttr := func(id int64) (int64, bool) { return id * 7919 % 23, id%5 != 0 }
	vAttr := func(id int64) (float64, bool) {
		if id%13 == 0 {
			return math.NaN(), true
		}
		return float64(id%11) - 0.5, id%6 != 0
	}
	type filter struct {
		name  string
		edge  Pred
		vert  Pred
		eTest func(x int64) bool
		vTest func(x float64) bool
	}
	filters := []filter{
		{name: "lt/gt", edge: Pred{Hi: -1, Op: PredLt, I: 15}, vert: Pred{Lo: 1, Hi: -1, Op: PredGt, F: 1},
			eTest: func(x int64) bool { return x < 15 }, vTest: func(x float64) bool { return cmpFloat(x, 1) > 0 }},
		{name: "ne/eq", edge: Pred{Lo: 1, Hi: 2, Op: PredNe, I: 3}, vert: Pred{Lo: 1, Hi: -1, Op: PredNe, F: 4.5},
			eTest: func(x int64) bool { return x != 3 }, vTest: func(x float64) bool { return cmpFloat(x, 4.5) != 0 }},
		{name: "in/not in", edge: Pred{Hi: -1, Op: PredNotIn, Set: []int64{1, 2, 3, 4, 5}},
			vert:  Pred{Hi: -1, Op: PredIn, FSet: []float64{0.5, 1.5, 2.5, 3.5, 5.5, 7.5, 9.5}},
			eTest: func(x int64) bool { return x < 1 || x > 5 },
			vTest: func(x float64) bool {
				for _, f := range []float64{0.5, 1.5, 2.5, 3.5, 5.5, 7.5, 9.5} {
					if cmpFloat(x, f) == 0 {
						return true
					}
				}
				return false
			}},
		{name: "le/ge", edge: Pred{Hi: -1, Op: PredGe, I: 4}, vert: Pred{Lo: 2, Hi: -1, Op: PredLe, F: 7.5},
			eTest: func(x int64) bool { return x >= 4 }, vTest: func(x float64) bool { return cmpFloat(x, 7.5) <= 0 }},
	}
	for _, directed := range []bool{true, false} {
		topo := topologyOf(t, randTopology(t, 21, 120, 600, directed))
		clean := topo.Version()
		mustNil(t, topo.AddEdge(9000, 1, 2, 9000))
		mustNil(t, topo.AddEdge(9001, 2, 70, 9001))
		for id := int64(1); id <= 600; id += 17 {
			topo.RemoveEdge(id)
		}
		delta := topo.Version()
		for _, v := range []struct {
			name string
			c    *CSR
		}{{"no delta", clean}, {"delta", delta}} {
			eCol := v.c.EdgeColumn(ColInt, func(e *Edge) Entry { x, ok := eAttr(e.ID); return Entry{I: x, OK: ok} })
			vCol := v.c.VertexColumn(ColFloat, func(u *Vertex) Entry { x, ok := vAttr(u.ID); return Entry{F: x, OK: ok} })
			for _, f := range filters {
				var asked int
				fe := func(pos int, e *Edge, from, to *Vertex) bool {
					asked++
					x, ok := eAttr(e.ID)
					return !f.edge.covers(pos) || ok && f.eTest(x)
				}
				fv := func(pos int, u *Vertex) bool {
					asked++
					x, ok := vAttr(u.ID)
					return !f.vert.covers(pos) || ok && f.vTest(x)
				}
				ep, vp := f.edge, f.vert
				ep.Col, vp.Col = eCol, vCol
				// A predicate with no column stands for a filter only the
				// closure answers: here, every edge at positions 3 on.
				open := Pred{Lo: 3, Hi: -1}
				weight := func(pos int, e *Edge, from, to *Vertex) (float64, bool) { return float64(e.ID%9) + 0.5, true }
				for start := int64(0); start < 120; start += 29 {
					for _, kernel := range []string{"dfs", "bfs", "sp"} {
						label := fmt.Sprintf("directed=%v %s %s %s start=%d", directed, v.name, f.name, kernel, start)
						spec := Spec{Start: v.c.Vertex(start), MaxLen: 4, Policy: VisitPerPath, FilterEdge: fe, FilterVertex: fv}
						if kernel == "bfs" {
							spec.Policy = VisitGlobal
						}
						run := func(spec Spec) []string {
							var it CSRIterator
							switch kernel {
							case "dfs":
								it = NewCSRDFS(v.c, spec)
							case "bfs":
								it = NewCSRBFS(v.c, spec)
							default:
								it = NewCSRShortest(v.c, spec, weight, 2)
							}
							defer it.Release()
							return drainStrings(it, 1<<20)
						}
						asked = 0
						want := run(spec)
						closureAsks := asked
						spec.EdgePreds, spec.VertexPreds = []Pred{ep, open}, []Pred{vp}
						asked = 0
						got := run(spec)
						diffSequences(t, label, want, got)
						if asked >= closureAsks && closureAsks > 0 {
							t.Fatalf("%s: the closures answered %d elements with columns, %d without", label, asked, closureAsks)
						}
					}
				}
			}
		}
	}
}

// TestPredTests pins each op's test against the closure's semantics on
// the entries that make a column inexact if done naively: int64s past
// 2^53, and NaN, ±Inf and −0, which types.Compare orders as unordered
// pairs equal.
func TestPredTests(t *testing.T) {
	ints := []int64{1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 - 1, math.MaxInt64, math.MinInt64, 0}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 0.5, -0.5}
	ic := newColumn(ColInt, len(ints), func(i int) Entry { return Entry{I: ints[i], OK: true} })
	fc := newColumn(ColFloat, len(floats), func(i int) Entry { return Entry{F: floats[i], OK: true} })
	ops := []PredOp{PredEq, PredNe, PredLt, PredLe, PredGt, PredGe}
	want := func(op PredOp, c int) bool {
		return [...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[op]
	}
	for _, op := range ops {
		for i, x := range ints {
			for _, b := range ints {
				c := 0
				if x < b {
					c = -1
				} else if x > b {
					c = 1
				}
				p := Pred{Col: ic, Op: op, I: b}
				if p.test(int32(i)) != want(op, c) {
					t.Errorf("int %d op %d %d: got %v", x, op, b, !want(op, c))
				}
			}
		}
		for i, x := range floats {
			for _, b := range floats {
				c := 0
				if x < b {
					c = -1
				} else if x > b {
					c = 1
				}
				p := Pred{Col: fc, Op: op, F: b}
				if p.test(int32(i)) != want(op, c) {
					t.Errorf("float %g op %d %g: got %v", x, op, b, !want(op, c))
				}
			}
		}
	}
	in := Pred{Col: fc, Op: PredIn, FSet: []float64{0.5}}
	if !in.test(0) || !in.test(5) || in.test(1) {
		t.Error("float IN: NaN and 0.5 are in (0.5), +Inf is not")
	}
}
