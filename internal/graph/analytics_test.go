package graph

import (
	"math"
	"math/rand"
	"testing"
)

// analyticsTestGraph builds a seeded random multigraph for the analytics
// tests.
func analyticsTestGraph(t testing.TB, nv, ne int, seed int64, directed bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New("t", directed)
	for i := 0; i < nv; i++ {
		if _, err := g.AddVertex(int64(i), uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ne; i++ {
		from := rng.Int63n(int64(nv))
		to := rng.Int63n(int64(nv))
		if _, err := g.AddEdge(int64(i), from, to, uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestPageRankUniformOnCycle(t *testing.T) {
	g := New("cycle", true)
	for i := int64(0); i < 3; i++ {
		g.AddVertex(i, uint64(i)+1)
	}
	g.AddEdge(0, 0, 1, 1)
	g.AddEdge(1, 1, 2, 2)
	g.AddEdge(2, 2, 0, 3)
	c := BuildCSR(g)
	a := c.NewAnalytics()
	defer a.Release()
	ranks, iters, err := a.PageRank(nil, 1, 0.85, 50, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatalf("iters = %d", iters)
	}
	for i, r := range ranks {
		if math.Abs(r-1.0/3) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1/3", i, r)
		}
	}
}

func TestPageRankMassConserved(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := analyticsTestGraph(t, 500, 1500, 7, directed)
		c := BuildCSR(g)
		a := c.NewAnalytics()
		ranks, _, err := a.PageRank(nil, 2, 0.85, 30, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, r := range ranks {
			sum += r
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("directed=%v: rank mass = %v, want 1", directed, sum)
		}
		a.Release()
	}
}

func TestComponentsIslands(t *testing.T) {
	g := New("islands", true)
	for _, id := range []int64{1, 2, 3, 10, 11, 20} {
		g.AddVertex(id, uint64(id))
	}
	g.AddEdge(1, 1, 2, 1)
	g.AddEdge(2, 3, 2, 2) // weak connectivity: direction must not matter
	g.AddEdge(3, 11, 10, 3)
	c := BuildCSR(g)
	a := c.NewAnalytics()
	defer a.Release()
	comp, stats, err := a.Components(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Components != 3 {
		t.Fatalf("components = %d, want 3", stats.Components)
	}
	want := map[int64]int64{1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 20: 20}
	for i := range comp {
		if vid := a.VertexID(i); comp[i] != want[vid] {
			t.Fatalf("comp[%d] = %d, want %d", vid, comp[i], want[vid])
		}
	}
}

func TestDegreesMatchFanOutFanIn(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := analyticsTestGraph(t, 300, 900, 11, directed)
		c := BuildCSR(g)
		a := c.NewAnalytics()
		outDeg, inDeg := a.Degrees()
		refOut, refIn := RefDegrees(g)
		for i := 0; i < c.NumVertices(); i++ {
			vid := a.VertexID(i)
			if outDeg[i] != refOut[vid] || inDeg[i] != refIn[vid] {
				t.Fatalf("directed=%v vertex %d: degrees (%d,%d), want (%d,%d)",
					directed, vid, outDeg[i], inDeg[i], refOut[vid], refIn[vid])
			}
		}
		a.Release()
	}
}

// TestKernelsMatchRef checks the CSR kernels against the pointer-graph
// references on the same topology. PageRank is compared bit-for-bit: the
// CSR adjacency mirrors the pointer lists' order, so the float reductions
// run in identical order.
func TestKernelsMatchRef(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := analyticsTestGraph(t, 2000, 6000, 42, directed)
		c := BuildCSR(g)
		a := c.NewAnalytics()

		ranks, kIters, err := a.PageRank(nil, 4, 0.85, 20, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		refRanks, rIters, err := RefPageRank(nil, g, 0.85, 20, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		if kIters != rIters {
			t.Fatalf("directed=%v: pagerank iters %d vs ref %d", directed, kIters, rIters)
		}
		for i, r := range ranks {
			if math.Float64bits(r) != math.Float64bits(refRanks[a.VertexID(i)]) {
				t.Fatalf("directed=%v: rank[%d] = %v, ref %v",
					directed, a.VertexID(i), r, refRanks[a.VertexID(i)])
			}
		}

		comp, stats, err := a.Components(nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		refComp, refLevels, err := RefComponents(nil, g)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Levels != refLevels {
			t.Fatalf("directed=%v: levels %d vs ref %d", directed, stats.Levels, refLevels)
		}
		for i, l := range comp {
			if l != refComp[a.VertexID(i)] {
				t.Fatalf("directed=%v: comp[%d] = %d, ref %d",
					directed, a.VertexID(i), l, refComp[a.VertexID(i)])
			}
		}

		lbl, kIters, err := a.LabelProp(nil, 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		refLbl, rIters, err := RefLabelProp(nil, g, 10)
		if err != nil {
			t.Fatal(err)
		}
		if kIters != rIters {
			t.Fatalf("directed=%v: labelprop iters %d vs ref %d", directed, kIters, rIters)
		}
		for i, l := range lbl {
			if l != refLbl[a.VertexID(i)] {
				t.Fatalf("directed=%v: lbl[%d] = %d, ref %d",
					directed, a.VertexID(i), l, refLbl[a.VertexID(i)])
			}
		}
		a.Release()
	}
}

// TestAnalyticsWorkerDeterminism checks the determinism contract: results
// are bit-identical across Workers = 1..8 (run under -race in CI).
func TestAnalyticsWorkerDeterminism(t *testing.T) {
	for _, directed := range []bool{true, false} {
		g := analyticsTestGraph(t, 3000, 9000, 99, directed)
		c := BuildCSR(g)

		var baseRanks []float64
		var baseComp, baseLbl []int64
		var baseStats ComponentsStats
		for workers := 1; workers <= 8; workers++ {
			a := c.NewAnalytics()
			ranks, _, err := a.PageRank(nil, workers, 0.85, 15, 0)
			if err != nil {
				t.Fatal(err)
			}
			comp, stats, err := a.Components(nil, workers)
			if err != nil {
				t.Fatal(err)
			}
			lbl, _, err := a.LabelProp(nil, workers, 8)
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				baseRanks = append([]float64(nil), ranks...)
				baseComp = append([]int64(nil), comp...)
				baseLbl = append([]int64(nil), lbl...)
				baseStats = stats
			} else {
				for i := range ranks {
					if math.Float64bits(ranks[i]) != math.Float64bits(baseRanks[i]) {
						t.Fatalf("directed=%v workers=%d: rank[%d] differs: %v vs %v",
							directed, workers, i, ranks[i], baseRanks[i])
					}
				}
				for i := range comp {
					if comp[i] != baseComp[i] {
						t.Fatalf("directed=%v workers=%d: comp[%d] differs", directed, workers, i)
					}
				}
				if stats != baseStats {
					t.Fatalf("directed=%v workers=%d: stats %+v vs %+v", directed, workers, stats, baseStats)
				}
				for i := range lbl {
					if lbl[i] != baseLbl[i] {
						t.Fatalf("directed=%v workers=%d: lbl[%d] differs", directed, workers, i)
					}
				}
			}
			a.Release()
		}
	}
}

func TestAnalyticsCancellation(t *testing.T) {
	g := analyticsTestGraph(t, 1000, 3000, 5, true)
	c := BuildCSR(g)
	done := make(chan struct{})
	close(done)
	for _, workers := range []int{1, 4} {
		a := c.NewAnalytics()
		if _, _, err := a.PageRank(done, workers, 0.85, 50, 0); err != ErrStopped {
			t.Fatalf("PageRank(workers=%d) err = %v, want ErrStopped", workers, err)
		}
		if _, _, err := a.Components(done, workers); err != ErrStopped {
			t.Fatalf("Components(workers=%d) err = %v, want ErrStopped", workers, err)
		}
		if _, _, err := a.LabelProp(done, workers, 50); err != ErrStopped {
			t.Fatalf("LabelProp(workers=%d) err = %v, want ErrStopped", workers, err)
		}
		a.Release()
	}
}

// TestAnalyticsZeroAlloc is the zero-allocation contract: steady-state
// components and degree runs (workers = 1, warm scratch pool) must not
// allocate.
func TestAnalyticsZeroAlloc(t *testing.T) {
	g := analyticsTestGraph(t, 2000, 6000, 3, true)
	c := BuildCSR(g)
	runComp := func() {
		a := c.NewAnalytics()
		if _, _, err := a.Components(nil, 1); err != nil {
			t.Fatal(err)
		}
		a.Release()
	}
	runDeg := func() {
		a := c.NewAnalytics()
		a.Degrees()
		a.Release()
	}
	runComp()
	runDeg()
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are meaningless")
	}
	if allocs := testing.AllocsPerRun(5, runComp); allocs > 0 {
		t.Fatalf("Components allocates %.1f/op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, runDeg); allocs > 0 {
		t.Fatalf("Degrees allocates %.1f/op in steady state, want 0", allocs)
	}
}
