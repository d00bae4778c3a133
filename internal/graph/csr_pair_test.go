package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// pairCase is one SPScan probe the two kernels must answer alike.
type pairCase struct {
	label string
	c     *CSR
	spec  Spec
}

// drainSP drains an SPScan kernel's paths and error, releasing it; a
// weight closure reports a weight that is not a number through *werr, as
// the executor's closure does.
func drainSP(it interface {
	CSRIterator
	Err() error
}, werr *error) ([]*Path, error) {
	var out []*Path
	for p := it.Next(); p != nil; p = it.Next() {
		out = append(out, p)
	}
	err := it.Err()
	if *werr != nil {
		err = *werr
	}
	it.Release()
	return out, err
}

// weightTable hands out SPScan weights by edge id: halves and small
// integers (every sum is exact), zeros and an occasional +Inf, so equal
// costs are common and costs compare exactly whatever the summation
// order.
type weightTable map[int64]float64

func (wt weightTable) draw(rng *rand.Rand, id int64) {
	switch r := rng.Intn(20); {
	case r < 4:
		wt[id] = 0
	case r == 4:
		wt[id] = math.Inf(1)
	default:
		wt[id] = float64(rng.Intn(6)) / 2
	}
}

// readers returns the one-sided weight closure (a weight that is not a
// number excludes the edge and is recorded in *werr, as the executor's
// closure does) and the side-effect-free reader over the same table;
// nonNumeric lists edges whose weight is not a number.
func (wt weightTable) readers(nonNumeric map[int64]bool, werr *error) (WeightFunc, EdgeWeight) {
	read := func(e *Edge) (float64, bool) {
		if nonNumeric[e.ID] {
			return 0, false
		}
		return wt[e.ID], true
	}
	weight := func(_ int, e *Edge, _, _ *Vertex) (float64, bool) {
		w, ok := read(e)
		if !ok && *werr == nil {
			*werr = fmt.Errorf("weight of edge %d is not numeric", e.ID)
		}
		return w, ok
	}
	return weight, read
}

// checkPairPath requires p to be a start→target path of c whose weights,
// summed left to right, are its cost.
func checkPairPath(t *testing.T, label string, c *CSR, p *Path, start, target *Vertex, wt weightTable) {
	t.Helper()
	live := map[*Edge]bool{}
	c.Edges(func(e *Edge) bool { live[e] = true; return true })
	if p.Start() != start || p.End() != target || len(p.Verts) != len(p.Edges)+1 {
		t.Fatalf("%s: path %s does not run from %d to %d", label, p, start.ID, target.ID)
	}
	sum := 0.0
	for i, e := range p.Edges {
		from, to := p.Verts[i], p.Verts[i+1]
		fwd := e.From == from && e.To == to
		if !live[e] || c.Vertex(from.ID) != from || c.Vertex(to.ID) != to ||
			!(fwd || !c.m.directed && e.From == to && e.To == from) {
			t.Fatalf("%s: step %d of %s is not an arc of the version", label, i, p)
		}
		sum += wt[e.ID]
	}
	if sum != p.Cost {
		t.Fatalf("%s: path %s sums to %g, reports %g", label, p, sum, p.Cost)
	}
}

// pairVersions builds a random view, its delta-free version, and a version
// whose delta touches vertexes, tombstones main edges and a vertex, and
// adds vertexes, multi-edges and self-loops.
func pairVersions(t *testing.T, seed int64, directed bool, wt weightTable) (clean, delta *CSR) {
	rng := rand.New(rand.NewSource(seed))
	const nv, ne = 150, 420
	g := randTopology(t, seed, nv, ne, directed)
	for id := int64(1); id <= ne; id++ {
		wt.draw(rng, id)
	}
	topo := topologyOf(t, g)
	clean = topo.Version()
	mustNil(t, topo.AddVertex(nv, nv))
	mustNil(t, topo.AddVertex(nv+1, nv+1))
	for id := int64(ne + 1); id <= ne+40; id++ {
		from, to := int64(rng.Intn(nv+2)), int64(rng.Intn(nv+2))
		switch id % 7 {
		case 0:
			to = from // self-loop
		case 1:
			from, to = 3, 4 // multi-edges
		}
		mustNil(t, topo.AddEdge(id, from, to, uint64(id)))
		wt.draw(rng, id)
	}
	for i := 0; i < 40; i++ {
		topo.RemoveEdge(int64(1 + rng.Intn(ne)))
	}
	if _, ok := topo.RemoveVertex(7); !ok {
		t.Fatal("vertex 7 missing")
	}
	delta = topo.Version()
	if clean.DeltaLen() != 0 || delta.DeltaLen() == 0 {
		t.Fatalf("delta lengths %d and %d", clean.DeltaLen(), delta.DeltaLen())
	}
	return clean, delta
}

// TestTwoSidedShortest checks the two-sided kernel against the one-sided
// k=1 kernel on random directed and undirected views, with and without a
// delta, reading weights through a column and through the reader: the
// same existence and cost for every pair, and a real path of the version
// whose left-to-right sum is that cost. Weights include zeros and +Inf,
// and the views multi-edges and self-loops.
func TestTwoSidedShortest(t *testing.T) {
	var oneArcs, pairArcs int64
	found := 0
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			wt := weightTable{}
			clean, delta := pairVersions(t, seed, directed, wt)
			var werr error
			weight, read := wt.readers(nil, &werr)
			byEdge := func(e *Edge) Entry { return Entry{F: wt[e.ID], OK: true} }
			rng := rand.New(rand.NewSource(seed))
			for _, v := range []struct {
				name string
				c    *CSR
			}{{"clean", clean}, {"delta", delta}} {
				for _, col := range []bool{false, true} {
					var wc *Column
					if col {
						wc = v.c.EdgeColumn(ColFloat, byEdge)
					}
					for i := 0; i < 60; i++ {
						s, tg := v.c.Vertex(int64(rng.Intn(152))), v.c.Vertex(int64(rng.Intn(152)))
						if s == nil || tg == nil {
							continue
						}
						label := fmt.Sprintf("directed=%v seed=%d %s column=%v %d→%d", directed, seed, v.name, col, s.ID, tg.ID)
						var oneN, pairN int64
						spec := Spec{Start: s, Target: tg, MinLen: 1, Weights: wc, Traversed: &oneN}
						want, err := drainSP(NewCSRShortest(v.c, spec, weight, 1), &werr)
						mustNil(t, err)
						spec.Traversed = &pairN
						got, err := drainSP(NewCSRShortestPair(v.c, spec, read), &werr)
						mustNil(t, err)
						oneArcs, pairArcs = oneArcs+oneN, pairArcs+pairN
						if len(got) != len(want) || len(got) > 1 {
							t.Fatalf("%s: two-sided gave %d paths, one-sided %d", label, len(got), len(want))
						}
						if len(got) == 0 {
							continue
						}
						found++
						if got[0].Cost != want[0].Cost {
							t.Fatalf("%s: two-sided %s costs %g, one-sided %s costs %g",
								label, got[0], got[0].Cost, want[0], want[0].Cost)
						}
						checkPairPath(t, label, v.c, got[0], s, tg, wt)
					}
				}
			}
		}
	}
	if found < 100 {
		t.Fatalf("only %d probes found a path", found)
	}
	if pairArcs >= oneArcs {
		t.Fatalf("the two-sided searches scanned %d arcs, the one-sided ones %d", pairArcs, oneArcs)
	}
}

// TestTwoSidedShortestEdgeCases: the start as target, an unreachable
// target, missing endpoints, a start the version does not hold and a
// halted search answer as the one-sided kernel does, and a spec of a shape
// the search does not answer is reported through Err with no path.
func TestTwoSidedShortestEdgeCases(t *testing.T) {
	wt := weightTable{}
	clean, delta := pairVersions(t, 9, true, wt)
	var werr error
	weight, read := wt.readers(nil, &werr)
	other := New("other", true)
	stranger, _ := other.AddVertex(5, 5)
	removed := clean.Vertex(7) // tombstoned in delta
	halted := make(chan struct{})
	close(halted)
	s, tg := delta.Vertex(3), delta.Vertex(4)
	for _, tc := range []pairCase{
		{"start is target, MinLen 1", delta, Spec{Start: s, Target: s, MinLen: 1}},
		{"start is target, MinLen 0", delta, Spec{Start: s, Target: s}},
		{"new vertex as target", delta, Spec{Start: s, Target: delta.Vertex(151), MinLen: 1}},
		{"new vertex as start", delta, Spec{Start: delta.Vertex(151), Target: s, MinLen: 1}},
		{"target of another graph", delta, Spec{Start: s, Target: stranger, MinLen: 1}},
		{"tombstoned target", delta, Spec{Start: s, Target: removed, MinLen: 1}},
		{"tombstoned start", delta, Spec{Start: removed, Target: s, MinLen: 1}},
		{"no start", delta, Spec{Target: tg, MinLen: 1}},
	} {
		want, err := drainSP(NewCSRShortest(tc.c, tc.spec, weight, 1), &werr)
		mustNil(t, err)
		got, err := drainSP(NewCSRShortestPair(tc.c, tc.spec, read), &werr)
		mustNil(t, err)
		if renderPaths(got) != renderPaths(want) {
			t.Errorf("%s: two-sided %s, one-sided %s", tc.label, renderPaths(got), renderPaths(want))
		}
	}
	if got, _ := drainSP(NewCSRShortestPair(delta, Spec{Start: s, Target: s}, read), &werr); len(got) != 1 || got[0].Len() != 0 || got[0].Cost != 0 {
		t.Errorf("start is target at MinLen 0: %v, want the zero-length path", got)
	}
	for _, tc := range []pairCase{
		{"no target", delta, Spec{Start: s, MinLen: 1}},
		{"length bound", clean, Spec{Start: s, Target: tg, MinLen: 1, MaxLen: 2}},
		{"MinLen 3", clean, Spec{Start: s, Target: tg, MinLen: 3}},
		{"vertex filter", clean, Spec{Start: s, Target: tg, MinLen: 1,
			FilterVertex: func(_ int, v *Vertex) bool { return v.ID%3 != 0 }}},
		{"edge filter", clean, Spec{Start: s, Target: tg, MinLen: 1,
			FilterEdge: func(_ int, e *Edge, _, _ *Vertex) bool { return e.ID%4 != 0 }}},
		{"prune", clean, Spec{Start: s, Target: tg, MinLen: 1,
			Prune: func(*Path) bool { return true }}},
	} {
		if got, err := drainSP(NewCSRShortestPair(tc.c, tc.spec, read), &werr); len(got) != 0 || err != errPairShape {
			t.Errorf("%s: two-sided %s %v, want %v", tc.label, renderPaths(got), err, errPairShape)
		}
	}
	// A halted search emits nothing (the executor reports the cause).
	// Delta holds the multi-edges 3→4, so the pair is connected.
	if got, _ := drainSP(NewCSRShortestPair(delta, Spec{Start: s, Target: tg, MinLen: 1}, read), &werr); len(got) != 1 {
		t.Fatalf("3→4 over the multi-edges: %s", renderPaths(got))
	}
	it := NewCSRShortestPair(delta, Spec{Start: s, Target: tg, MinLen: 1, Done: halted}, read)
	it.halt.ticks = stopCheckMask // the next poll is due at once
	if got, _ := drainSP(it, &werr); len(got) != 0 {
		t.Errorf("a halted search emitted %s", renderPaths(got))
	}
}

// TestTwoSidedShortestBadWeights: a negative, NaN or non-numeric weight
// the two-sided search reads breaks its precondition, and it reports that
// through Err with no path, through the column and through the reader.
// Each probe puts the bad weight on an edge of the path the search found
// with clean weights, which it must read again. (The executor never
// starts the search on such a version: catalog.GraphViewAt.WeightsVouched.)
func TestTwoSidedShortestBadWeights(t *testing.T) {
	refused := 0
	for _, directed := range []bool{true, false} {
		wt := weightTable{}
		clean, delta := pairVersions(t, 5, directed, wt)
		rng := rand.New(rand.NewSource(5))
		for _, c := range []*CSR{clean, delta} {
			for i := 0; i < 60; i++ {
				s, tg := c.Vertex(int64(rng.Intn(150))), c.Vertex(int64(rng.Intn(150)))
				if s == nil || tg == nil {
					continue
				}
				var werr error
				_, read := wt.readers(nil, &werr)
				spec := Spec{Start: s, Target: tg, MinLen: 1}
				found, _ := drainSP(NewCSRShortestPair(c, spec, read), &werr)
				if len(found) == 0 || found[0].Len() == 0 {
					continue
				}
				bad := found[0].Edges[rng.Intn(found[0].Len())].ID
				saved := wt[bad]
				nonNumeric := map[int64]bool{}
				switch i % 3 {
				case 0:
					wt[bad] = -1
				case 1:
					wt[bad] = math.NaN()
				case 2:
					nonNumeric[bad] = true
				}
				_, read = wt.readers(nonNumeric, &werr)
				for _, col := range []bool{false, true} {
					spec.Weights = nil
					if col {
						// The column holds no entry for a weight that is
						// not a number, and the kernel asks the reader.
						spec.Weights = c.EdgeColumn(ColFloat, func(e *Edge) Entry {
							return Entry{F: wt[e.ID], OK: !nonNumeric[e.ID]}
						})
					}
					got, err := drainSP(NewCSRShortestPair(c, spec, read), &werr)
					if len(got) != 0 || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("edge %d ", bad)) {
						t.Fatalf("directed=%v delta=%v column=%v %d→%d bad edge %d: got %s %v",
							directed, c.DeltaLen() > 0, col, s.ID, tg.ID, bad, renderPaths(got), err)
					}
					refused++
				}
				wt[bad] = saved
			}
		}
	}
	if refused < 50 {
		t.Fatalf("only %d probes met their bad weight", refused)
	}
}

// renderPaths renders paths with their costs.
func renderPaths(ps []*Path) string {
	out := ""
	for _, p := range ps {
		out += fmt.Sprintf("%s cost=%g;", p, p.Cost)
	}
	return out
}
