package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func mustNil(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// topologyOf builds a Topology holding g's vertexes and edges, edges added
// in ascending identifier order.
func topologyOf(t testing.TB, g *Graph) *Topology {
	t.Helper()
	b := NewBuilder(g.Name(), g.Directed(), g.NumVertices(), g.NumEdges())
	g.Vertices(func(v *Vertex) bool { mustNil(t, b.AddVertex(v.ID, v.Tuple)); return true })
	g.Edges(func(e *Edge) bool { mustNil(t, b.AddEdge(e.ID, e.From.ID, e.To.ID, e.Tuple)); return true })
	topo, err := b.Build()
	mustNil(t, err)
	return topo
}

// topoSig renders a pointer topology with its adjacency order.
func topoSig(g *Graph) string {
	var sb strings.Builder
	g.Vertices(func(v *Vertex) bool {
		fmt.Fprintf(&sb, "V %d @%d out=%v in=%v\n", v.ID, v.Tuple, ids(v.Out), ids(v.In))
		return true
	})
	g.Edges(func(e *Edge) bool {
		fmt.Fprintf(&sb, "E %d %d->%d @%d\n", e.ID, e.From.ID, e.To.ID, e.Tuple)
		return true
	})
	return sb.String()
}

// setSig renders a topology's elements without adjacency order.
func setSig(g interface {
	Vertices(func(*Vertex) bool)
	Edges(func(*Edge) bool)
}) string {
	var sb strings.Builder
	g.Vertices(func(v *Vertex) bool { fmt.Fprintf(&sb, "V %d @%d\n", v.ID, v.Tuple); return true })
	g.Edges(func(e *Edge) bool {
		fmt.Fprintf(&sb, "E %d %d->%d @%d\n", e.ID, e.From.ID, e.To.ID, e.Tuple)
		return true
	})
	return sb.String()
}

// churn applies one random mutation to both the topology and the
// reference graph, which must agree on whether it applies.
func churn(t *testing.T, rng *rand.Rand, topo *Topology, ref *Graph, next *int64) {
	t.Helper()
	var vids, eids []int64
	ref.Vertices(func(v *Vertex) bool { vids = append(vids, v.ID); return true })
	ref.Edges(func(e *Edge) bool { eids = append(eids, e.ID); return true })
	pickV := func() int64 {
		if len(vids) == 0 || rng.Intn(10) == 0 {
			return *next + 1000 // usually absent
		}
		return vids[rng.Intn(len(vids))]
	}
	pickE := func() int64 {
		if len(eids) == 0 || rng.Intn(10) == 0 {
			return *next + 1000
		}
		return eids[rng.Intn(len(eids))]
	}
	*next++
	id := *next
	var gotErr, wantErr bool
	switch op := rng.Intn(100); {
	case op < 40:
		from, to := pickV(), pickV()
		_, err := ref.AddEdge(id, from, to, uint64(id))
		wantErr, gotErr = err != nil, topo.AddEdge(id, from, to, uint64(id)) != nil
	case op < 60:
		e := pickE()
		wantErr, gotErr = !ref.RemoveEdge(e), !topo.RemoveEdge(e)
	case op < 75:
		_, err := ref.AddVertex(id, uint64(id))
		wantErr, gotErr = err != nil, topo.AddVertex(id, uint64(id)) != nil
	case op < 83:
		v := pickV()
		want, ok1 := ref.RemoveVertex(v)
		got, ok2 := topo.RemoveVertex(v)
		wantErr, gotErr = !ok1, !ok2
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("RemoveVertex(%d) cascaded %v, reference %v", v, got, want)
		}
	case op < 92:
		v, nv := pickV(), id
		if rng.Intn(4) == 0 {
			nv = pickV()
		}
		wantErr, gotErr = ref.RenameVertex(v, nv) != nil, topo.RenameVertex(v, nv) != nil
	default:
		e, ne := pickE(), id
		wantErr, gotErr = ref.RenameEdge(e, ne) != nil, topo.RenameEdge(e, ne) != nil
	}
	if gotErr != wantErr {
		t.Fatalf("mutation %d: topology failed=%v, reference failed=%v", id, gotErr, wantErr)
	}
}

// kernelRuns renders every traversal kernel's output from a few starts,
// through fn (the CSR kernels over a version, or the pointer kernels over
// its materialization).
func kernelRuns(starts []int64, vertex func(int64) *Vertex, run func(kind int, spec Spec) []string) []string {
	var out []string
	for _, id := range starts {
		start := vertex(id)
		for kind := 0; kind < 3; kind++ {
			for _, spec := range []Spec{
				{Start: start, MinLen: 1, MaxLen: 3},
				{Start: start, MaxLen: 4, Policy: VisitPerPath},
				{Start: start, Target: start, MinLen: 2, MaxLen: 3, Policy: VisitPerPath, AllowCycle: true},
			} {
				out = append(out, fmt.Sprintf("k%d %d: %v", kind, id, run(kind, spec)))
			}
		}
	}
	return out
}

func weightOf(_ int, e *Edge, _, _ *Vertex) (float64, bool) { return float64(e.ID%7) + 1, true }

func csrKernels(c *CSR) func(int, Spec) []string {
	return func(kind int, spec Spec) []string {
		var it CSRIterator
		switch kind {
		case 0:
			it = NewCSRDFS(c, spec)
		case 1:
			it = NewCSRBFS(c, spec)
		default:
			it = NewCSRShortest(c, spec, weightOf, 2)
		}
		defer it.Release()
		return drainStrings(it, 500)
	}
}

func ptrKernels(g *Graph) func(int, Spec) []string {
	return func(kind int, spec Spec) []string {
		switch kind {
		case 0:
			return drainStrings(NewDFS(g, spec), 500)
		case 1:
			return drainStrings(NewBFS(g, spec), 500)
		default:
			return drainStrings(NewShortest(g, spec, weightOf, 2), 500)
		}
	}
}

// analyticsRows renders every analytics kernel's result rows.
func analyticsRows(t *testing.T, c *CSR, workers int) string {
	t.Helper()
	a := c.NewAnalytics()
	defer a.Release()
	var sb strings.Builder
	ranks, _, err := a.PageRank(nil, workers, 0.85, 15, 1e-12)
	mustNil(t, err)
	for i, r := range ranks {
		fmt.Fprintf(&sb, "pr %d %x\n", a.VertexID(i), math.Float64bits(r))
	}
	comp, stats, err := a.Components(nil, workers)
	mustNil(t, err)
	fmt.Fprintf(&sb, "cc %+v\n", stats)
	for i, l := range comp {
		fmt.Fprintf(&sb, "cc %d %d\n", a.VertexID(i), l)
	}
	lbl, _, err := a.LabelProp(nil, workers, 6)
	mustNil(t, err)
	for i, l := range lbl {
		fmt.Fprintf(&sb, "lp %d %d\n", a.VertexID(i), l)
	}
	out, in := a.Degrees()
	for i := range out {
		fmt.Fprintf(&sb, "dc %d %d %d\n", a.VertexID(i), out[i], in[i])
	}
	return sb.String()
}

// refAnalyticsRows renders the Ref* references over a pointer topology in
// analyticsRows' format.
func refAnalyticsRows(t *testing.T, g *Graph) string {
	t.Helper()
	var vids []int64
	g.Vertices(func(v *Vertex) bool { vids = append(vids, v.ID); return true })
	var sb strings.Builder
	ranks, _, err := RefPageRank(nil, g, 0.85, 15, 1e-12)
	mustNil(t, err)
	for _, id := range vids {
		fmt.Fprintf(&sb, "pr %d %x\n", id, math.Float64bits(ranks[id]))
	}
	comp, levels, err := RefComponents(nil, g)
	mustNil(t, err)
	fmt.Fprintf(&sb, "levels %d\n", levels)
	for _, id := range vids {
		fmt.Fprintf(&sb, "cc %d %d\n", id, comp[id])
	}
	lbl, _, err := RefLabelProp(nil, g, 6)
	mustNil(t, err)
	for _, id := range vids {
		fmt.Fprintf(&sb, "lp %d %d\n", id, lbl[id])
	}
	out, in := RefDegrees(g)
	for _, id := range vids {
		fmt.Fprintf(&sb, "dc %d %d %d\n", id, out[id], in[id])
	}
	return sb.String()
}

// levelsOf splits the component-level count off analyticsRows' or
// refAnalyticsRows' output (the statistics line and the reference's level
// line agree on levels only).
func levelsOf(rows string) (string, string) {
	var levels string
	var kept []string
	for _, l := range strings.Split(rows, "\n") {
		switch {
		case strings.HasPrefix(l, "cc {"):
			var st ComponentsStats
			fmt.Sscanf(l, "cc {Components:%d Levels:%d", &st.Components, &st.Levels)
			levels = fmt.Sprint(st.Levels)
		case strings.HasPrefix(l, "levels "):
			levels = strings.TrimPrefix(l, "levels ")
		default:
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n"), levels
}

// TestTopologyDifferential drives a Topology and a reference Graph through
// the same random mutation history (merges included) and checks, at many
// versions: the same elements; the CSR kernels over the version and the
// pointer kernels over its materialization emit identical path sequences;
// the analytics kernels equal the references bit for bit at any worker
// count; and every earlier version still answers exactly as it did.
func TestTopologyDifferential(t *testing.T) {
	for _, directed := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := randTopology(t, seed, 30, 90, directed)
			topo := topologyOf(t, ref)
			next := int64(1000)
			type pinned struct {
				c    *CSR
				runs []string
			}
			var pins []pinned
			for round := 0; round < 12; round++ {
				for i := 0; i < 15; i++ {
					churn(t, rng, topo, ref, &next)
				}
				if round%5 == 4 {
					topo.Merge()
				}
				c := topo.Version()
				label := fmt.Sprintf("directed=%v seed=%d round=%d", directed, seed, round)
				if got, want := setSig(c), setSig(ref); got != want {
					t.Fatalf("%s: version diverged from the reference:\n%s\nwant\n%s", label, got, want)
				}
				if c.NumVertices() != ref.NumVertices() || c.NumEdges() != ref.NumEdges() {
					t.Fatalf("%s: counts %d/%d, want %d/%d", label,
						c.NumVertices(), c.NumEdges(), ref.NumVertices(), ref.NumEdges())
				}
				g := c.Graph()
				var starts []int64
				g.Vertices(func(v *Vertex) bool {
					if len(starts) < 4 {
						starts = append(starts, v.ID)
					}
					return true
				})
				runs := kernelRuns(starts, c.Vertex, csrKernels(c))
				diffSequences(t, label+" kernels", kernelRuns(starts, g.Vertex, ptrKernels(g)), runs)
				rows, lv := levelsOf(analyticsRows(t, c, 1))
				wantRows, wantLv := levelsOf(refAnalyticsRows(t, g))
				if rows != wantRows || lv != wantLv {
					t.Fatalf("%s: analytics diverged from the references:\n%s\nwant\n%s", label, rows, wantRows)
				}
				if par, _ := levelsOf(analyticsRows(t, c, 3)); par != rows {
					t.Fatalf("%s: analytics depend on the worker count", label)
				}
				for _, v := range g.vertices {
					if c.FanOut(c.Vertex(v.ID)) != g.FanOut(v) || c.FanIn(c.Vertex(v.ID)) != g.FanIn(v) {
						t.Fatalf("%s: fan of vertex %d differs", label, v.ID)
					}
				}
				pins = append(pins, pinned{c, runs})
			}
			for i, p := range pins {
				var starts []int64
				p.c.Vertices(func(v *Vertex) bool {
					if len(starts) < 4 {
						starts = append(starts, v.ID)
					}
					return true
				})
				diffSequences(t, fmt.Sprintf("directed=%v seed=%d pinned version %d", directed, seed, i),
					p.runs, kernelRuns(starts, p.c.Vertex, csrKernels(p.c)))
			}
		}
	}
}

// TestMergePreservesOrder: a merge changes no answer — every kernel emits
// the same paths in the same order, and the analytics the same rows,
// immediately before and after it.
func TestMergePreservesOrder(t *testing.T) {
	for _, directed := range []bool{true, false} {
		rng := rand.New(rand.NewSource(9))
		ref := randTopology(t, 9, 40, 120, directed)
		topo := topologyOf(t, ref)
		next := int64(1000)
		for i := 0; i < 60; i++ {
			churn(t, rng, topo, ref, &next)
		}
		before := topo.Version()
		if before.n == 0 {
			t.Fatal("the churn merged everything away; nothing to compare")
		}
		var starts []int64
		before.Vertices(func(v *Vertex) bool { starts = append(starts, v.ID); return true })
		runsBefore := kernelRuns(starts, before.Vertex, csrKernels(before))
		rowsBefore := analyticsRows(t, before, 2)
		graphBefore := topoSig(before.Graph())
		builds, _, _ := topo.Stats()
		topo.Merge()
		after := topo.Version()
		if b, _, _ := topo.Stats(); b != builds+1 || after.n != 0 {
			t.Fatalf("merge did not lay out a new main (builds %d -> %d, delta %d)", builds, b, after.n)
		}
		diffSequences(t, fmt.Sprintf("directed=%v merge", directed),
			runsBefore, kernelRuns(starts, after.Vertex, csrKernels(after)))
		if rows := analyticsRows(t, after, 2); rows != rowsBefore {
			t.Fatalf("directed=%v: analytics changed across the merge", directed)
		}
		if g := topoSig(after.Graph()); g != graphBefore {
			t.Fatalf("directed=%v: canonical adjacency changed across the merge:\n%s\nwant\n%s", directed, g, graphBefore)
		}
		if g := topoSig(BuildCSR(after.Graph()).Graph()); g != graphBefore {
			t.Fatalf("directed=%v: BuildCSR of the materialization reorders adjacency", directed)
		}
	}
}

// TestTopologyMergesBySize: changes only append, and Settle — run before
// every publish — folds the delta into a new main once it holds more than
// max(64, (V+E)/8) events, so a long churn of one-row statements and a
// single statement of many changes both publish a bounded delta.
func TestTopologyMergesBySize(t *testing.T) {
	topo := topologyOf(t, randTopology(t, 3, 200, 600, true))
	limit := mergeAfter(800)
	for i := 0; i < 5*limit; i++ {
		id := int64(10_000 + i)
		mustNil(t, topo.AddEdge(id, int64(i%200), int64((i*7)%200), uint64(id)))
		if !topo.RemoveEdge(id) {
			t.Fatalf("RemoveEdge(%d) = false", id)
		}
		topo.Settle() // one publish per statement
		if n := topo.Version().DeltaLen(); n > limit {
			t.Fatalf("published delta holds %d events, limit %d", n, limit)
		}
	}
	builds, _, _ := topo.Stats()
	if builds < 5 {
		t.Fatalf("builds = %d after %d events, want a merge per %d", builds, 10*limit, limit)
	}
	for i := 0; i < 3*limit; i++ {
		id := int64(50_000 + i)
		mustNil(t, topo.AddEdge(id, int64(i%200), int64((i*11)%200), uint64(id)))
	}
	if b, _, _ := topo.Stats(); b != builds {
		t.Fatalf("changes alone merged %d times; only Settle merges", b-builds)
	}
	topo.Settle()
	if n, limit := topo.Version().DeltaLen(), mergeAfter(len(topo.h.m.verts)+len(topo.h.m.edges)); n > limit {
		t.Fatalf("Settle left %d events, limit %d", n, limit)
	}
	if b, _, _ := topo.Stats(); b != builds+1 {
		t.Fatalf("Settle after %d events laid out %d mains, want 1", 3*limit, b-builds)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("g", true, 0, 0)
	mustNil(t, b.AddVertex(1, 1))
	if err := b.AddVertex(1, 2); err == nil || !strings.Contains(err.Error(), "duplicate vertex id 1") {
		t.Fatalf("duplicate vertex: %v", err)
	}
	if err := b.AddEdge(5, 1, 2, 5); err == nil || !strings.Contains(err.Error(), "missing vertex 2") {
		t.Fatalf("dangling edge: %v", err)
	}
	mustNil(t, b.AddEdge(5, 1, 1, 5))
	mustNil(t, b.AddEdge(5, 1, 1, 6))
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate edge id 5") {
		t.Fatalf("duplicate edge: %v", err)
	}
}

// TestIncidentEdges lists every live incident edge once, self-loops too.
func TestIncidentEdges(t *testing.T) {
	g := New("g", false)
	for i := int64(1); i <= 3; i++ {
		g.AddVertex(i, uint64(i))
	}
	g.AddEdge(10, 1, 2, 10)
	g.AddEdge(11, 2, 2, 11)
	g.AddEdge(12, 3, 2, 12)
	topo := topologyOf(t, g)
	mustNil(t, topo.AddEdge(13, 2, 1, 13))
	topo.RemoveEdge(10)
	var got []int64
	for _, e := range topo.IncidentEdges(2) {
		got = append(got, e.ID)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if fmt.Sprint(got) != "[11 12 13]" {
		t.Fatalf("incident edges of 2 = %v", got)
	}
	if topo.IncidentEdges(42) != nil {
		t.Fatal("incident edges of a missing vertex")
	}
}

// TestVersionsUnderConcurrentWriter reads pinned versions from several
// goroutines while a writer keeps mutating and merging the topology (run
// it under -race): every version must keep answering exactly what it
// answered when it was bound.
func TestVersionsUnderConcurrentWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := randTopology(t, 21, 40, 120, false)
	topo := topologyOf(t, ref)
	next := int64(1000)
	type pinned struct {
		c      *CSR
		starts []int64
		runs   []string
	}
	bind := func() pinned {
		c := topo.Version()
		var starts []int64
		c.Vertices(func(v *Vertex) bool {
			if len(starts) < 3 {
				starts = append(starts, v.ID)
			}
			return true
		})
		return pinned{c, starts, kernelRuns(starts, c.Vertex, csrKernels(c))}
	}
	var mu sync.Mutex
	pins := []pinned{bind()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				p := pins[i%len(pins)]
				mu.Unlock()
				if got := kernelRuns(p.starts, p.c.Vertex, csrKernels(p.c)); fmt.Sprint(got) != fmt.Sprint(p.runs) {
					t.Errorf("a pinned version's answers moved under the writer")
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		churn(t, rng, topo, ref, &next)
		if i%40 == 39 {
			topo.Merge()
		}
		if i%10 == 9 {
			p := bind()
			mu.Lock()
			pins = append(pins, p)
			mu.Unlock()
		}
	}
	close(stop)
	wg.Wait()
}
