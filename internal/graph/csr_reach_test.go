package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// drainReach runs a BFS kernel to its first path and releases it.
func drainReach(it CSRIterator) *Path {
	p := it.Next()
	if it.Next() != nil {
		panic("a visit-once targeted BFS emitted a second path")
	}
	it.Release()
	return p
}

// checkReachPath requires p to be a start→target path of c: consecutive
// vertexes joined by a live arc of the version, in the traversal
// direction (either way on an undirected view), with no vertex repeated.
func checkReachPath(t *testing.T, label string, c *CSR, p *Path, start, target *Vertex) {
	t.Helper()
	live := map[*Edge]bool{}
	c.Edges(func(e *Edge) bool { live[e] = true; return true })
	if p.Start() != start || p.End() != target || len(p.Verts) != len(p.Edges)+1 {
		t.Fatalf("%s: path %s does not run from %d to %d", label, p, start.ID, target.ID)
	}
	seen := map[*Vertex]bool{}
	for i, v := range p.Verts {
		if seen[v] || c.Vertex(v.ID) != v {
			t.Fatalf("%s: vertex %d of %s repeats or is not live", label, i, p)
		}
		seen[v] = true
	}
	for i, e := range p.Edges {
		from, to := p.Verts[i], p.Verts[i+1]
		if !live[e] || !(e.From == from && e.To == to || !c.m.directed && e.From == to && e.To == from) {
			t.Fatalf("%s: step %d of %s is not an arc of the version", label, i, p)
		}
	}
}

// TestTwoSidedReach checks the two-sided BFS against the one-sided one on
// random directed and undirected views, on a version without a delta and
// on one whose delta touches vertexes, tombstones main edges and a vertex,
// and adds vertexes, multi-edges and self-loops: the same existence and
// hop count for every pair, at MinLen 0 and 1 (start = target included),
// and a real, simple path of the version. Over all probes it scans fewer
// arcs.
func TestTwoSidedReach(t *testing.T) {
	var oneArcs, twoArcs int64
	found, none, same := 0, 0, 0
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 3; seed++ {
			clean, delta := pairVersions(t, seed, directed, weightTable{})
			rng := rand.New(rand.NewSource(seed))
			for _, v := range []struct {
				name string
				c    *CSR
			}{{"clean", clean}, {"delta", delta}} {
				for i := 0; i < 80; i++ {
					s, tg := v.c.Vertex(int64(rng.Intn(152))), v.c.Vertex(int64(rng.Intn(152)))
					if i%10 == 0 {
						tg = s
					}
					if s == nil || tg == nil {
						continue
					}
					for _, minLen := range []int{0, 1} {
						label := fmt.Sprintf("directed=%v seed=%d %s minLen=%d %d→%d", directed, seed, v.name, minLen, s.ID, tg.ID)
						var oneN, twoN int64
						spec := Spec{Start: s, Target: tg, MinLen: minLen, Traversed: &oneN}
						want := drainReach(NewCSRBFS(v.c, spec))
						spec.Traversed = &twoN
						r := NewCSRReach(v.c, spec)
						got := r.Next()
						mustNil(t, r.Err())
						r.Release()
						oneArcs, twoArcs = oneArcs+oneN, twoArcs+twoN
						if (got == nil) != (want == nil) {
							t.Fatalf("%s: two-sided found %v, one-sided %v", label, got, want)
						}
						switch {
						case got == nil:
							none++
							continue
						case s == tg:
							same++
						default:
							found++
						}
						if got.Len() != want.Len() {
							t.Fatalf("%s: two-sided %s has %d hops, one-sided %s %d", label, got, got.Len(), want, want.Len())
						}
						checkReachPath(t, label, v.c, got, s, tg)
					}
				}
			}
		}
	}
	t.Logf("probes: %d found a path, %d none, %d start = target; arcs two-sided %d, one-sided %d", found, none, same, twoArcs, oneArcs)
	if found < 100 || none < 20 || same < 10 {
		t.Fatalf("probes: %d found a path, %d none, %d start = target: too few of some kind", found, none, same)
	}
	if twoArcs >= oneArcs {
		t.Fatalf("the two-sided searches scanned %d arcs, the one-sided ones %d", twoArcs, oneArcs)
	}
}

// TestTwoSidedReachEdgeCases covers what the random differential may
// miss: a missing start or target (one not live in the version, one of
// another topology), an unreachable target on each side, a halted search,
// and the shapes the search does not answer, which are an error through
// Err with no path.
func TestTwoSidedReachEdgeCases(t *testing.T) {
	clean, delta := pairVersions(t, 4, true, weightTable{})
	gone := clean.Vertex(7) // removed in the delta version
	stranger := &Vertex{ID: 3}
	reach := func(c *CSR, spec Spec) (*Path, error) {
		it := NewCSRReach(c, spec)
		p := it.Next()
		err := it.Err()
		it.Release()
		return p, err
	}
	for _, sp := range []Spec{
		{Start: gone, Target: delta.Vertex(3)},
		{Start: delta.Vertex(3), Target: gone},
		{Start: stranger, Target: delta.Vertex(4)},
		{Start: delta.Vertex(4), Target: stranger},
	} {
		if p, err := reach(delta, sp); p != nil || err != nil {
			t.Fatalf("a missing endpoint gave %v, %v", p, err)
		}
	}

	// A chain 0→1→…→n-1 and a sink-less, source-less pair: 0 reaches
	// n-1 only along the chain, n-1 reaches nothing, and the isolated
	// vertex n is reached by nothing.
	const n = 1000
	g := New("chain", true)
	for i := int64(0); i <= n; i++ {
		_, err := g.AddVertex(i, uint64(i))
		mustNil(t, err)
	}
	for i := int64(0); i+1 < n; i++ {
		_, err := g.AddEdge(i, i, i+1, uint64(i))
		mustNil(t, err)
	}
	c := BuildCSR(g)
	first, last, lone := c.Vertex(0), c.Vertex(n-1), c.Vertex(n)
	if p, err := reach(c, Spec{Start: first, Target: last}); err != nil || p == nil || p.Len() != n-1 {
		t.Fatalf("the chain gave %v, %v", p, err)
	}
	for _, sp := range []Spec{{Start: last, Target: first}, {Start: first, Target: lone}, {Start: lone, Target: first}} {
		if p, err := reach(c, sp); p != nil || err != nil {
			t.Fatalf("%d→%d is unreachable, yet gave %v, %v", sp.Start.ID, sp.Target.ID, p, err)
		}
	}
	done := make(chan struct{})
	close(done)
	var arcs int64
	if p, err := reach(c, Spec{Start: first, Target: last, Done: done, Traversed: &arcs}); p != nil || err != nil || arcs >= n-1 {
		t.Fatalf("a halted search gave %v, %v after %d arcs", p, err, arcs)
	}

	filter := func(int, *Edge, *Vertex, *Vertex) bool { return true }
	for name, sp := range map[string]Spec{
		"no target":   {Start: first},
		"MaxLen":      {Start: first, Target: last, MaxLen: n},
		"MinLen 2":    {Start: first, Target: last, MinLen: 2},
		"all paths":   {Start: first, Target: last, Policy: VisitPerPath},
		"cycle":       {Start: first, Target: first, AllowCycle: true},
		"edge filter": {Start: first, Target: last, FilterEdge: filter},
		"vertex filter": {Start: first, Target: last,
			FilterVertex: func(int, *Vertex) bool { return true }},
		"prune": {Start: first, Target: last, Prune: func(*Path) bool { return true }},
	} {
		if p, err := reach(c, sp); p != nil || !errors.Is(err, errReachShape) {
			t.Fatalf("%s: gave %v, %v; want no path and errReachShape", name, p, err)
		}
	}
}
