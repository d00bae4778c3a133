package graph

import (
	"fmt"
	"testing"
)

// star builds a directed star: hub vertex 0 with leaves 1..n, edge i goes
// 0 -> i with edge id i.
func star(t testing.TB, n int) *Graph {
	t.Helper()
	g := New("star", true)
	if _, err := g.AddVertex(0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := g.AddVertex(int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddEdge(int64(i), 0, int64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestHighDegreeDelete covers the swap-and-truncate adjacency removal: a
// hub vertex with tens of thousands of incident edges must delete edge by
// edge (and then wholesale) without the old O(degree²) rescan, and the
// maintained position indexes must stay consistent through the swaps.
func TestHighDegreeDelete(t *testing.T) {
	const n = 20000
	g := star(t, n)
	hub := g.Vertex(0)
	if len(hub.Out) != n {
		t.Fatalf("hub out-degree = %d, want %d", len(hub.Out), n)
	}

	// Remove every third edge individually; each removal swaps the tail
	// into the hole, so position indexes must be repaired as we go.
	removed := map[int64]bool{}
	for id := int64(3); id <= n; id += 3 {
		if !g.RemoveEdge(id) {
			t.Fatalf("RemoveEdge(%d) = false", id)
		}
		removed[id] = true
	}
	if got := len(hub.Out); got != n-len(removed) {
		t.Fatalf("hub out-degree after deletes = %d, want %d", got, n-len(removed))
	}
	// Position indexes must agree with list placement exactly.
	for i, e := range hub.Out {
		if int(e.outPos) != i {
			t.Fatalf("edge %d: outPos = %d but placed at %d", e.ID, e.outPos, i)
		}
		if removed[e.ID] {
			t.Fatalf("removed edge %d still on adjacency", e.ID)
		}
	}
	for _, e := range hub.Out {
		leaf := e.To
		if len(leaf.In) != 1 || leaf.In[0] != e || e.inPos != 0 {
			t.Fatalf("leaf %d in-list inconsistent", leaf.ID)
		}
	}

	// Deleting the hub cascades the rest, one O(1) removal per edge.
	cascaded, ok := g.RemoveVertex(0)
	if !ok {
		t.Fatal("RemoveVertex(0) = false")
	}
	if len(cascaded) != n-len(removed) {
		t.Fatalf("cascaded %d edges, want %d", len(cascaded), n-len(removed))
	}
	if g.NumEdges() != 0 || g.NumVertices() != n {
		t.Fatalf("after hub delete: %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
}

// TestSelfLoopRemoval exercises the independent out/in positions a
// self-loop occupies on the same vertex's two lists.
func TestSelfLoopRemoval(t *testing.T) {
	g := New("loops", true)
	for i := int64(0); i < 3; i++ {
		if _, err := g.AddVertex(i, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(id, from, to int64) {
		t.Helper()
		if _, err := g.AddEdge(id, from, to, uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge(1, 0, 1) // occupies 0.Out[0]
	mustEdge(2, 0, 0) // self-loop: 0.Out[1] and 0.In[0]
	mustEdge(3, 2, 0) // 0.In[1]
	if !g.RemoveEdge(2) {
		t.Fatal("RemoveEdge(2) = false")
	}
	v0 := g.Vertex(0)
	if len(v0.Out) != 1 || v0.Out[0].ID != 1 {
		t.Fatalf("v0.Out = %v", ids(v0.Out))
	}
	if len(v0.In) != 1 || v0.In[0].ID != 3 {
		t.Fatalf("v0.In = %v", ids(v0.In))
	}
	for i, e := range v0.Out {
		if int(e.outPos) != i {
			t.Fatalf("outPos broken for edge %d", e.ID)
		}
	}
	for i, e := range v0.In {
		if int(e.inPos) != i {
			t.Fatalf("inPos broken for edge %d", e.ID)
		}
	}
}

func ids(es []*Edge) []int64 {
	out := make([]int64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// TestIterationOrderCache proves Vertices/Edges serve ascending-id order
// through every kind of topology mutation (the cache must drop whenever
// the order could change).
func TestIterationOrderCache(t *testing.T) {
	g := New("cache", true)
	for _, id := range []int64{5, 1, 9} {
		if _, err := g.AddVertex(id, uint64(id)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(wantV, wantE []int64) {
		t.Helper()
		var gotV []int64
		g.Vertices(func(v *Vertex) bool { gotV = append(gotV, v.ID); return true })
		if fmt.Sprint(gotV) != fmt.Sprint(wantV) {
			t.Fatalf("vertex order = %v, want %v", gotV, wantV)
		}
		var gotE []int64
		g.Edges(func(e *Edge) bool { gotE = append(gotE, e.ID); return true })
		if fmt.Sprint(gotE) != fmt.Sprint(wantE) {
			t.Fatalf("edge order = %v, want %v", gotE, wantE)
		}
	}
	check([]int64{1, 5, 9}, nil)
	check([]int64{1, 5, 9}, nil) // cached second pass

	if _, err := g.AddVertex(3, 3); err != nil {
		t.Fatal(err)
	}
	check([]int64{1, 3, 5, 9}, nil)

	if _, err := g.AddEdge(7, 5, 1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(2, 1, 3, 2); err != nil {
		t.Fatal(err)
	}
	check([]int64{1, 3, 5, 9}, []int64{2, 7})

	if err := g.RenameVertex(9, 0); err != nil {
		t.Fatal(err)
	}
	check([]int64{0, 1, 3, 5}, []int64{2, 7})

	if err := g.RenameEdge(2, 8); err != nil {
		t.Fatal(err)
	}
	check([]int64{0, 1, 3, 5}, []int64{7, 8})

	if !g.RemoveEdge(7) {
		t.Fatal("RemoveEdge(7) = false")
	}
	check([]int64{0, 1, 3, 5}, []int64{8})

	if _, ok := g.RemoveVertex(1); !ok {
		t.Fatal("RemoveVertex(1) = false")
	}
	check([]int64{0, 3, 5}, nil)
}

// TestBFSPruneAllocs is the allocs-per-op guard for the bfsIter.Prune fix:
// rejecting every candidate expansion over a 10k-leaf hub must not
// materialize 10k paths. The whole traversal is allowed a small constant
// number of allocations (iterator, queue, visited map, adjacency scratch).
func TestBFSPruneAllocs(t *testing.T) {
	const n = 10000
	g := star(t, n)
	hub := g.Vertex(0)
	spec := Spec{
		Start:  hub,
		MinLen: 1,
		Prune:  func(p *Path) bool { return false },
	}
	// Warm-up run so lazily sized structures don't count.
	if p := NewBFS(g, spec).Next(); p != nil {
		t.Fatalf("prune-everything BFS emitted %v", p)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if p := NewBFS(g, spec).Next(); p != nil {
			t.Fatalf("prune-everything BFS emitted %v", p)
		}
	})
	// Before the scratch-path fix this was ~3 allocations per leaf
	// (30k+); the fixed kernel allocates only per-traversal state.
	if allocs > 50 {
		t.Fatalf("BFS with rejecting Prune allocated %.0f objects; candidate materialization is back", allocs)
	}
}

// TestShortestPruneAllocs is the same guard for the SPScan kernel.
func TestShortestPruneAllocs(t *testing.T) {
	const n = 10000
	g := star(t, n)
	hub := g.Vertex(0)
	spec := Spec{
		Start:  hub,
		MinLen: 1,
		Prune:  func(p *Path) bool { return false },
	}
	run := func() {
		it := NewShortest(g, spec, UnitWeight, 1)
		if p := it.Next(); p != nil {
			t.Fatalf("prune-everything SPScan emitted %v", p)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 50 {
		t.Fatalf("SPScan with rejecting Prune allocated %.0f objects; candidate materialization is back", allocs)
	}
}

// BenchmarkRemoveHighDegreeVertex measures hub deletion (the formerly
// quadratic case).
func BenchmarkRemoveHighDegreeVertex(b *testing.B) {
	const n = 10000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := star(b, n)
		b.StartTimer()
		g.RemoveVertex(0)
	}
}
