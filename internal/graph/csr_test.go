package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randTopology builds a pseudo-random multigraph (self-loops and parallel
// edges included) from a fixed seed.
func randTopology(t testing.TB, seed int64, nv, ne int, directed bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(fmt.Sprintf("rand%d", seed), directed)
	for i := 0; i < nv; i++ {
		if _, err := g.AddVertex(int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ne; i++ {
		from := int64(rng.Intn(nv))
		to := int64(rng.Intn(nv))
		if _, err := g.AddEdge(int64(i+1), from, to, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// drain pulls up to max paths and renders them; the rendering includes
// the cost so SPScan differentials also compare costs.
func drainStrings(it PathIterator, max int) []string {
	var out []string
	for len(out) < max {
		p := it.Next()
		if p == nil {
			break
		}
		out = append(out, fmt.Sprintf("%s cost=%g", p, p.Cost))
	}
	return out
}

func diffSequences(t *testing.T, label string, ptr, csr []string) {
	t.Helper()
	if len(ptr) != len(csr) {
		t.Fatalf("%s: pointer kernel emitted %d paths, CSR %d\nptr=%v\ncsr=%v",
			label, len(ptr), len(csr), head(ptr), head(csr))
	}
	for i := range ptr {
		if ptr[i] != csr[i] {
			t.Fatalf("%s: path %d differs\nptr: %s\ncsr: %s", label, i, ptr[i], csr[i])
		}
	}
}

func head(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// TestCSRDifferential runs the pointer and CSR kernels over identical
// random topologies and a matrix of traversal specs; the emitted path
// sequences must be byte-identical (same paths, same order, same costs).
func TestCSRDifferential(t *testing.T) {
	const maxPaths = 4000
	edgeFilter := func(pos int, e *Edge, from, to *Vertex) bool { return e.ID%3 != 0 }
	vertFilter := func(pos int, v *Vertex) bool { return v.ID%7 != 5 }
	pruneShort := func(p *Path) bool { return p.Len() < 5 }

	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 6; seed++ {
			nv := 8 + int(seed)*3
			ne := nv * 3
			g := randTopology(t, seed, nv, ne, directed)
			c := BuildCSR(g)
			starts := []*Vertex{g.Vertex(0), g.Vertex(int64(nv / 2))}
			targets := []*Vertex{nil, g.Vertex(int64(nv - 1))}

			specs := []Spec{}
			for _, start := range starts {
				for _, target := range targets {
					specs = append(specs,
						Spec{Start: start, Target: target},
						Spec{Start: start, Target: target, MinLen: 1, MaxLen: 3},
						Spec{Start: start, Target: target, Policy: VisitPerPath, MaxLen: 4},
						Spec{Start: start, Target: target, Policy: VisitPerPath,
							AllowCycle: true, MinLen: 2, MaxLen: 3},
						Spec{Start: start, Target: target, MaxLen: 5,
							FilterEdge: edgeFilter, FilterVertex: vertFilter},
						Spec{Start: start, Target: target, Policy: VisitPerPath,
							MaxLen: 4, Prune: pruneShort},
					)
				}
			}

			for si, spec := range specs {
				label := fmt.Sprintf("directed=%v seed=%d spec=%d", directed, seed, si)
				diffSequences(t, label+" dfs",
					drainStrings(NewDFS(g, spec), maxPaths),
					drainReleased(NewCSRDFS(c, spec), maxPaths))
				diffSequences(t, label+" bfs",
					drainStrings(NewBFS(g, spec), maxPaths),
					drainReleased(NewCSRBFS(c, spec), maxPaths))
				for _, k := range []int{1, 2} {
					weight := func(pos int, e *Edge, from, to *Vertex) (float64, bool) {
						return float64(e.ID%5) + 1, true
					}
					ptrIt := NewShortest(g, spec, weight, k)
					csrIt := NewCSRShortest(c, spec, weight, k)
					ptr := drainStrings(ptrIt, maxPaths)
					csr := drainStrings(csrIt, maxPaths)
					if (ptrIt.Err() == nil) != (csrIt.Err() == nil) {
						t.Fatalf("%s sp k=%d: error mismatch: ptr=%v csr=%v",
							label, k, ptrIt.Err(), csrIt.Err())
					}
					csrIt.Release()
					diffSequences(t, fmt.Sprintf("%s sp k=%d", label, k), ptr, csr)
				}
			}
		}
	}
}

func drainReleased(it CSRIterator, max int) []string {
	out := drainStrings(it, max)
	it.Release()
	return out
}

// TestCSRReachableDifferential checks the CSR reachability kernels against
// the pointer baseline over every vertex pair: the two-sided BFS when the
// length is unbounded, the one-sided BFS under a length bound (which the
// two-sided search does not answer).
func TestCSRReachableDifferential(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := randTopology(t, 42, 14, 40, directed)
		c := BuildCSR(g)
		for _, maxLen := range []int{0, 2} {
			for a := int64(0); a < 14; a++ {
				for b := int64(0); b < 14; b++ {
					want := Reachable(g, g.Vertex(a), g.Vertex(b), maxLen)
					got := csrReachable(c, g.Vertex(a), g.Vertex(b), maxLen)
					if want != got {
						t.Fatalf("directed=%v maxLen=%d: Reachable(%d,%d)=%v but CSR says %v",
							directed, maxLen, a, b, want, got)
					}
				}
			}
		}
	}
}

// csrReachable reports whether target is reachable from start within
// maxLen edges (unbounded when maxLen <= 0) over the version, as
// Reachable does over a Graph.
func csrReachable(c *CSR, start, target *Vertex, maxLen int) bool {
	if start == nil || target == nil {
		return false
	}
	spec := Spec{Start: start, Target: target, MaxLen: maxLen}
	var it CSRIterator = NewCSRReach(c, spec)
	if maxLen > 0 {
		it = NewCSRBFS(c, spec)
	}
	ok := it.Step()
	it.Release()
	return ok
}

// TestCSRFreshness pins the version contract that replaced snapshot
// invalidation: a version bound before a mutation never observes it, and
// the next version does — across inserts, deletes, renames and a merge.
func TestCSRFreshness(t *testing.T) {
	topo := topologyOf(t, randTopology(t, 7, 10, 20, true))
	v0 := topo.Version()
	if again := topo.Version(); again != v0 {
		t.Fatal("rebinding an unchanged topology made a new version")
	}
	sig0 := topoSig(v0.Graph())
	mustNil(t, topo.AddVertex(99, 99))
	mustNil(t, topo.AddEdge(100, 99, 0, 100))
	if !topo.RemoveEdge(1) {
		t.Fatal("RemoveEdge(1) = false")
	}
	mustNil(t, topo.RenameVertex(3, 33))
	v1 := topo.Version()
	if v1 == v0 || v1.Vertex(99) == nil || v1.Vertex(3) != nil || v1.Vertex(33) == nil || v1.Graph().Edge(1) != nil {
		t.Fatal("new version misses the mutations")
	}
	topo.Merge()
	if _, ok := topo.RemoveVertex(99); !ok {
		t.Fatal("RemoveVertex(99) = false")
	}
	if got := topoSig(v0.Graph()); got != sig0 {
		t.Fatalf("old version observed later mutations:\n%s\nwant\n%s", got, sig0)
	}
	if v0.Vertex(3) == nil || v0.Vertex(99) != nil || v0.Graph().Edge(1) == nil {
		t.Fatal("old version's lookups moved")
	}
	if topo.Version().Vertex(99) != nil {
		t.Fatal("head still has vertex 99")
	}
}

// TestCSRStartTargetIdentity: a vertex of another topology with an equal
// identifier must not resolve into the snapshot (pointer-identity
// semantics, matching the pointer kernels).
func TestCSRStartTargetIdentity(t *testing.T) {
	g := randTopology(t, 3, 8, 16, true)
	c := BuildCSR(g)
	imposterG := randTopology(t, 3, 8, 16, true)
	imposter := imposterG.Vertex(0)
	it := NewCSRBFS(c, Spec{Start: imposter})
	if p := it.Next(); p != nil {
		t.Fatalf("foreign start vertex emitted %v", p)
	}
	it.Release()
	it = NewCSRBFS(c, Spec{Start: g.Vertex(0), Target: imposter, MinLen: 1})
	if p := it.Next(); p != nil {
		t.Fatalf("foreign target vertex emitted %v", p)
	}
	it.Release()
}

// TestCSRStepAllocs is the tentpole's zero-allocation guard: after one
// warm-up traversal sizes the pooled scratch, a full Step-drained
// traversal (the reachability/counting fast path) performs zero heap
// allocations for all three kernels.
func TestCSRStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	g := randTopology(t, 11, 3000, 12000, true)
	c := BuildCSR(g)
	start := g.Vertex(0)

	cases := []struct {
		name string
		run  func()
	}{
		{"dfs", func() {
			it := NewCSRDFS(c, Spec{Start: start, MinLen: 1})
			for it.Step() {
			}
			it.Release()
		}},
		{"bfs", func() {
			it := NewCSRBFS(c, Spec{Start: start, MinLen: 1})
			for it.Step() {
			}
			it.Release()
		}},
		{"sp", func() {
			it := NewCSRShortest(c, Spec{Start: start, MinLen: 1}, UnitWeight, 1)
			for it.Step() {
			}
			it.Release()
		}},
		{"triangles", func() {
			it := NewCSRDFS(c, Spec{Start: start, Target: start, Policy: VisitPerPath,
				AllowCycle: true, MinLen: 3, MaxLen: 3})
			for it.Step() {
			}
			it.Release()
		}},
	}
	for _, tc := range cases {
		tc.run() // warm-up sizes the pooled scratch
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state traversal, want 0", tc.name, allocs)
		}
	}
}

// TestScratchPoolPerKernel: SPScan and BFS/DFS draw scratch from separate
// pools of one main, so a BFS or DFS that runs after an SPScan holds none
// of SPScan's arena, radix buckets, cost slab or settle slabs.
func TestScratchPoolPerKernel(t *testing.T) {
	g := randTopology(t, 12, 500, 2000, true)
	c := BuildCSR(g)
	start := g.Vertex(0)
	sp := NewCSRShortest(c, Spec{Start: start, MinLen: 1}, UnitWeight, 1)
	n := 0
	for sp.Step() {
		n++
	}
	if n == 0 || cap(sp.s.sp) == 0 {
		t.Fatal("the SPScan settled nothing: the test cannot tell the pools apart")
	}
	sp.Release()
	// A two-sided SPScan grows both sides' slabs, the backward ones
	// included, in an spPool scratch.
	pair := NewCSRShortestPair(c, Spec{Start: start, Target: g.Vertex(499), MinLen: 1},
		func(*Edge) (float64, bool) { return 1, true })
	for pair.Step() {
	}
	if pair.Err() != nil || cap(pair.s.sides[1].nodes) == 0 || len(pair.s.sides[1].seen) == 0 {
		t.Fatal("the two-sided SPScan grew no backward slabs: the test cannot tell the pools apart")
	}
	pair.Release()

	walks := map[string]func() CSRIterator{
		"bfs": func() CSRIterator { return NewCSRBFS(c, Spec{Start: start, MinLen: 1}) },
		"dfs": func() CSRIterator { return NewCSRDFS(c, Spec{Start: start, MinLen: 1, MaxLen: 3}) },
	}
	for name, open := range walks {
		it := open()
		var s *csrScratch
		switch w := it.(type) {
		case *csrBFSIter:
			s = w.s
		case *csrDFSIter:
			s = w.s
		}
		for it.Step() {
		}
		if cap(s.sp) != 0 || cap(s.best) != 0 || cap(s.settledE) != 0 || cap(s.settledC) != 0 {
			t.Errorf("%s scratch holds SPScan's arena (cap %d), cost slab (cap %d) or settle slabs (cap %d, %d)",
				name, cap(s.sp), cap(s.best), cap(s.settledE), cap(s.settledC))
		}
		for i, b := range s.spq.b {
			if cap(b) != 0 {
				t.Errorf("%s scratch holds radix bucket %d (cap %d)", name, i, cap(b))
			}
		}
		for d := range s.sides {
			side := &s.sides[d]
			held := cap(side.seen) + cap(side.node) + cap(side.nodes)
			for _, b := range side.q.b {
				held += cap(b)
			}
			if held != 0 {
				t.Errorf("%s scratch holds the two-sided SPScan's side %d slabs", name, d)
			}
		}
		it.Release()
	}
}

// TestCSRStepNextInterleave: Step and Next advance the same cursor.
func TestCSRStepNextInterleave(t *testing.T) {
	g := randTopology(t, 5, 12, 30, true)
	c := BuildCSR(g)
	spec := Spec{Start: g.Vertex(0), MinLen: 1}
	ref := drainStrings(NewBFS(g, spec), 1000)
	it := NewCSRBFS(c, spec)
	var got []string
	i := 0
	for {
		if i%2 == 1 && i < len(ref) { // skip odd emissions via Step
			if !it.Step() {
				break
			}
			got = append(got, ref[i]) // stepped-over result counts as seen
		} else {
			p := it.Next()
			if p == nil {
				break
			}
			got = append(got, fmt.Sprintf("%s cost=%g", p, p.Cost))
		}
		i++
	}
	it.Release()
	diffSequences(t, "interleave", ref, got)
}

// BenchmarkKernelReachability compares the pointer and CSR unbounded
// reachability kernels (the headline case: full BFS over the topology),
// the CSR one run one-sided and from both ends.
func BenchmarkKernelReachability(b *testing.B) {
	g := randTopology(b, 13, 20000, 80000, true)
	start, target := g.Vertex(0), g.Vertex(19999)
	b.Run("ptr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Reachable(g, start, target, 0)
		}
	})
	c := BuildCSR(g)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := NewCSRBFS(c, Spec{Start: start, Target: target})
			it.Step()
			it.Release()
		}
	})
	b.Run("csr-two-sided", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			csrReachable(c, start, target, 0)
		}
	})
}
