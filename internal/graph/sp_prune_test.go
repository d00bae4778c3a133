package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestCSRShortestTiesMatchReference: with integer weights drawn from
// {0, 1, 2} nearly every vertex is reached by several equal-cost
// candidates, so a k=1 SPScan that drops a candidate it should have
// queued, or lets a tie break differently, emits another path (or the
// same paths in another order) than the pointer kernel, which queues
// every candidate. One scratch serves every traversal of a topology, so a
// dominance bound that leaked across traversals would show too.
func TestCSRShortestTiesMatchReference(t *testing.T) {
	pruneEdge := func(p *Path) bool { return p.Len() == 0 || p.Edges[p.Len()-1].ID%4 != 0 }
	edgeFilter := func(pos int, e *Edge, from, to *Vertex) bool { return e.ID%7 != 3 }
	vertFilter := func(pos int, v *Vertex) bool { return v.ID%9 != 4 }
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			nv := 40 + 10*int(seed)
			g := randTopology(t, seed, nv, 4*nv, directed)
			c := BuildCSR(g)
			rng := rand.New(rand.NewSource(seed))
			w := make(map[int64]float64)
			g.Edges(func(e *Edge) bool { w[e.ID] = float64(rng.Intn(3)); return true })
			weight := func(pos int, e *Edge, from, to *Vertex) (float64, bool) { return w[e.ID], true }
			for start := int64(0); start < int64(nv); start += 3 {
				target := g.Vertex((start*7 + 5) % int64(nv))
				for si, spec := range []Spec{
					{Start: g.Vertex(start)},
					{Start: g.Vertex(start), Target: target, MinLen: 1},
					{Start: g.Vertex(start), MaxLen: 3},
					{Start: g.Vertex(start), MinLen: 2, Prune: pruneEdge},
					{Start: g.Vertex(start), FilterEdge: edgeFilter, FilterVertex: vertFilter},
				} {
					label := fmt.Sprintf("directed=%v seed=%d start=%d spec=%d", directed, seed, start, si)
					ptr := NewShortest(g, spec, weight, 1)
					want := drainStrings(ptr, 1<<20)
					it := NewCSRShortest(c, spec, weight, 1)
					got := drainStrings(it, 1<<20)
					if ptr.Err() != nil || it.Err() != nil {
						t.Fatalf("%s: errors ptr=%v csr=%v", label, ptr.Err(), it.Err())
					}
					it.Release()
					diffSequences(t, label, want, got)
				}
			}
		}
	}
}

// spTieGraph is s→a (edge 1), s→x (edge 2), a→x (edge 3) with weights 1,
// 1 and w: a and x are queued at the same cost, a first, so a is settled
// while x is still queued and a→x is relaxed against x's queued cost.
func spTieGraph(t *testing.T, w float64) (*Graph, WeightFunc) {
	t.Helper()
	g := New("tie", true)
	for id := int64(1); id <= 3; id++ {
		if _, err := g.AddVertex(id, uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	const s, a, x = 1, 2, 3
	for _, e := range [][3]int64{{1, s, a}, {2, s, x}, {3, a, x}} {
		if _, err := g.AddEdge(e[0], e[1], e[2], uint64(e[0])); err != nil {
			t.Fatal(err)
		}
	}
	weights := map[int64]float64{1: 1, 2: 1, 3: w}
	return g, func(pos int, e *Edge, from, to *Vertex) (float64, bool) { return weights[e.ID], true }
}

// TestSPScanRejectsBadWeightBehindTie: a negative or NaN weight on an edge
// into a vertex that is already queued at a cost no higher than the
// edge's source still raises the weight error, in both kernels and for
// every k — the dominance skip must not swallow it.
func TestSPScanRejectsBadWeightBehindTie(t *testing.T) {
	for _, tc := range []struct {
		w    float64
		want string
	}{{-1, "negative weight -1 on edge 3"}, {math.NaN(), "NaN weight on edge 3"}} {
		g, weight := spTieGraph(t, tc.w)
		c := BuildCSR(g)
		for _, k := range []int{1, 2} {
			spec := Spec{Start: g.Vertex(1)}
			ptr := NewShortest(g, spec, weight, k)
			drainStrings(ptr, 100)
			it := NewCSRShortest(c, spec, weight, k)
			drainStrings(it, 100)
			for kernel, err := range map[string]error{"pointer": ptr.Err(), "csr": it.Err()} {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("w=%v k=%d %s kernel: err = %v, want %q", tc.w, k, kernel, err, tc.want)
				}
			}
			it.Release()
		}
	}
}

// TestSPScanRejectsNaNWeight: a NaN weight is an error in both kernels,
// whether the CSR kernel reads it from the weight closure or the weight
// column. A NaN cost is unordered against every other cost, so no
// (cost, node) order holds it; the same !(w >= 0) check keeps a negative
// weight out, which is the radix queue's precondition that no key falls
// below the last pop. Edges out of every tenth vertex weigh NaN; each
// traversal starts at one of those with an arc to another vertex, so its
// first expansion relaxes a NaN edge.
func TestSPScanRejectsNaNWeight(t *testing.T) {
	g := randTopology(t, 7, 200, 1000, true)
	c := BuildCSR(g)
	weight := func(pos int, e *Edge, from, to *Vertex) (float64, bool) {
		if e.From.ID%10 == 0 {
			return math.NaN(), true
		}
		return float64(e.ID % 17), true
	}
	col := c.EdgeColumn(func(e *Edge) float64 { w, _ := weight(0, e, nil, nil); return w })
	starts := 0
	for id := int64(0); id < 200; id += 10 {
		v := g.Vertex(id)
		if !slices.ContainsFunc(v.Out, func(e *Edge) bool { return e.To != v }) {
			continue
		}
		starts++
		spec := Spec{Start: v}
		ptr := NewShortest(g, spec, weight, 1)
		drainStrings(ptr, 1<<20)
		it := NewCSRShortest(c, spec, weight, 1)
		drainStrings(it, 1<<20)
		spec.Weights = col
		itCol := NewCSRShortest(c, spec, weight, 1)
		drainStrings(itCol, 1<<20)
		for kernel, err := range map[string]error{"pointer": ptr.Err(), "csr": it.Err(), "csr+column": itCol.Err()} {
			if err == nil || !strings.Contains(err.Error(), "NaN weight on edge") {
				t.Errorf("start %d %s kernel: err = %v, want a NaN weight error", id, kernel, err)
			}
		}
		it.Release()
		itCol.Release()
	}
	if starts < 10 {
		t.Fatalf("only %d starts relax a NaN edge", starts)
	}
}

// TestEdgeColumnLayouts: SPScan reads the same weights from a column as
// from the weight closure in both of EdgeColumn's layouts — by traversal
// arc on a version without a delta, by edge index on one with a delta —
// over directed and undirected views, at k=1 and k=3.
func TestEdgeColumnLayouts(t *testing.T) {
	weight := func(pos int, e *Edge, from, to *Vertex) (float64, bool) {
		return float64(e.ID%17) + 0.5, true
	}
	byEdge := func(e *Edge) float64 { w, _ := weight(0, e, nil, nil); return w }
	for _, directed := range []bool{true, false} {
		topo := topologyOf(t, randTopology(t, 11, 300, 1500, directed))
		clean := topo.Version()
		mustNil(t, topo.AddEdge(5000, 1, 2, 5000))
		mustNil(t, topo.AddEdge(5001, 2, 250, 5001))
		for id := int64(1); id <= 1500; id += 13 {
			topo.RemoveEdge(id)
		}
		delta := topo.Version()
		if clean.DeltaLen() != 0 || delta.DeltaLen() == 0 {
			t.Fatalf("delta lengths %d and %d, want 0 and > 0", clean.DeltaLen(), delta.DeltaLen())
		}
		for _, tc := range []struct {
			name    string
			c       *CSR
			wantLen int
		}{
			{"no delta", clean, len(clean.m.adjEdge)},
			{"delta", delta, len(delta.m.edges) + len(delta.dedges)},
		} {
			label := fmt.Sprintf("directed=%v %s", directed, tc.name)
			col := tc.c.EdgeColumn(byEdge)
			if len(col) != tc.wantLen {
				t.Fatalf("%s: column holds %d values, want %d", label, len(col), tc.wantLen)
			}
			for start := int64(0); start < 300; start += 23 {
				for _, k := range []int{1, 3} {
					spec := Spec{Start: tc.c.Vertex(start)}
					closure := NewCSRShortest(tc.c, spec, weight, k)
					want := drainStrings(closure, 1<<20)
					closure.Release()
					spec.Weights = col
					column := NewCSRShortest(tc.c, spec, weight, k)
					got := drainStrings(column, 1<<20)
					column.Release()
					diffSequences(t, fmt.Sprintf("%s start %d k=%d", label, start, k), want, got)
				}
			}
		}
	}
}
