package oracle

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// metricOf reads one metrics-snapshot entry by name (-1 when absent).
func metricOf(eng *core.Engine, name string) int64 {
	for _, kv := range eng.MetricsSnapshot() {
		if kv.Name == name {
			return kv.Value
		}
	}
	return -1
}

// refProbe is one PathScan statement plus what the pointer reference
// kernels need to answer it independently: the traversal window, the
// endpoint bindings and the pushed edge predicate.
type refProbe struct {
	sql string
	// kernel is DFScan, BFScan or SPScan; empty means the statement carries
	// no hint and the reference runs whichever operator EXPLAIN names.
	kernel string
	// src < 0 fans out of every vertex; dst < 0 binds no target; cycle
	// closes each path back onto its own start (Listing 4's triangles).
	src, dst       int64
	minLen, maxLen int
	cycle          bool
	selPct         int    // pushed Edges[0..*].sel < selPct; < 0 = none
	nameGE         string // pushed Vertexes[1..*].name >= nameGE; "" = none
	// render turns the reference paths into the statement's result rows.
	render func(paths []*graph.Path) []string
}

func pathStrings(paths []*graph.Path) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	return out
}

func pathCount(paths []*graph.Path) []string {
	return []string{strconv.Itoa(len(paths))}
}

// referenceProbes is the per-batch probe battery of the kernel-reference
// differential. Every query has a finite, fully-materialized answer, so
// engine and reference rows are compared in emission order.
func (sc *scenario) referenceProbes(rng *rand.Rand, st *datagen.GraphState) []refProbe {
	verts := st.VertexIDs()
	if len(verts) == 0 {
		return nil
	}
	pick := func() int64 { return verts[rng.Intn(len(verts))] }
	src, dst := pick(), pick()
	selPct := 10 + rng.Intn(85)
	k := 1 + rng.Intn(3)
	ps := []refProbe{
		{sql: fmt.Sprintf("SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.Length <= %d",
			sc.gv, src, k+1),
			src: src, dst: -1, minLen: 1, maxLen: k + 1, selPct: -1, render: pathStrings},
		{sql: fmt.Sprintf("SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.Length <= %d AND PS.Edges[0..*].sel < %d",
			sc.gv, dst, k+2, selPct),
			src: dst, dst: -1, minLen: 1, maxLen: k + 2, selPct: selPct, render: pathStrings},
		{sql: fmt.Sprintf("SELECT PS.PathString, PS.Length FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d AND PS.Length <= 4",
			sc.gv, src, dst),
			src: src, dst: dst, minLen: 1, maxLen: 4, selPct: -1,
			render: func(paths []*graph.Path) []string {
				out := make([]string, len(paths))
				for i, p := range paths {
					out[i] = fmt.Sprintf("%s|%d", p, p.Len())
				}
				return out
			}},
		{sql: fmt.Sprintf("SELECT TOP 1 SUM(PS.Edges.w) FROM %s.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d",
			sc.gv, src, dst),
			kernel: "SPScan", src: src, dst: dst, minLen: 1, selPct: -1,
			render: func(paths []*graph.Path) []string {
				if len(paths) == 0 {
					return nil
				}
				sum := 0.0
				for _, e := range paths[0].Edges {
					sum += st.Edges[e.ID].Weight
				}
				return []string{types.NewFloat(sum).String()}
			}},
		{sql: fmt.Sprintf("SELECT COUNT(*) FROM %s.Paths PS HINT(BFS) WHERE PS.Length <= %d", sc.gv, k),
			kernel: "BFScan", src: -1, dst: -1, minLen: 1, maxLen: k, selPct: -1, render: pathCount},
		{sql: fmt.Sprintf("SELECT COUNT(*) FROM %s.Paths PS HINT(DFS) WHERE PS.Length <= %d AND PS.Edges[0..*].sel < %d",
			sc.gv, k, selPct),
			kernel: "DFScan", src: -1, dst: -1, minLen: 1, maxLen: k, selPct: selPct, render: pathCount},
	}
	// A pushed vertex filter over the VARCHAR name, which keeps the
	// closure, beside the sel filter, which the typed path tests.
	nameGE := st.Verts[pick()]
	ps = append(ps, refProbe{sql: fmt.Sprintf(
		"SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.Length <= %d AND PS.Vertexes[1..*].name >= '%s' AND PS.Edges[0..*].sel < %d",
		sc.gv, src, k+1, strings.ReplaceAll(nameGE, "'", "''"), selPct),
		src: src, dst: -1, minLen: 1, maxLen: k + 1, selPct: selPct, nameGE: nameGE, render: pathStrings})
	if !sc.directed {
		ps = append(ps, refProbe{sql: fmt.Sprintf(
			"SELECT COUNT(P) FROM %s.Paths P WHERE P.Length = 3 AND P.Edges[0..*].sel < %d AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
			sc.gv, selPct),
			src: -1, dst: -1, minLen: 3, maxLen: 3, cycle: true, selPct: selPct, render: pathCount})
	}
	return ps
}

// reference answers p with the pointer kernels of internal/graph walking g
// (the topology the engine published; its own consistency with the
// relational sources is checkMaintenance's job). Edge attributes come from
// the ground-truth model, not from the engine's tuple pointers.
func (p *refProbe) reference(g *graph.Graph, st *datagen.GraphState, kernel string) ([]string, error) {
	var starts []*graph.Vertex
	if p.src < 0 {
		g.Vertices(func(v *graph.Vertex) bool { starts = append(starts, v); return true })
	} else if v := g.Vertex(p.src); v != nil {
		starts = append(starts, v)
	}
	var target *graph.Vertex
	if p.dst >= 0 {
		if target = g.Vertex(p.dst); target == nil {
			starts = nil // the bound endpoint does not exist
		}
	}
	var paths []*graph.Path
	for _, start := range starts {
		spec := graph.Spec{Start: start, Target: target, MinLen: p.minLen, MaxLen: p.maxLen}
		if p.cycle {
			spec.Target, spec.AllowCycle, spec.Policy = start, true, graph.VisitPerPath
		}
		if p.selPct >= 0 {
			spec.FilterEdge = func(_ int, e *graph.Edge, _, _ *graph.Vertex) bool {
				return st.Edges[e.ID].Sel < int64(p.selPct)
			}
		}
		if p.nameGE != "" {
			spec.FilterVertex = func(pos int, v *graph.Vertex) bool {
				return pos < 1 || st.Verts[v.ID] >= p.nameGE
			}
		}
		var it graph.PathIterator
		var kerr func() error
		switch kernel {
		case "DFScan":
			it = graph.NewDFS(g, spec)
		case "BFScan":
			it = graph.NewBFS(g, spec)
		case "SPScan":
			sp := graph.NewShortest(g, spec, func(_ int, e *graph.Edge, _, _ *graph.Vertex) (float64, bool) {
				return st.Edges[e.ID].Weight, true
			}, 1)
			it, kerr = sp, sp.Err
		default:
			return nil, fmt.Errorf("no reference kernel for %q", kernel)
		}
		for path := it.Next(); path != nil; path = it.Next() {
			paths = append(paths, path)
		}
		if kerr != nil {
			if err := kerr(); err != nil {
				return nil, err
			}
		}
	}
	return p.render(paths), nil
}

// typedActuals matches the typed probes on a PathScan's EXPLAIN ANALYZE
// line.
var typedActuals = regexp.MustCompile(`PathScan\[.* typed=(\d+)\)$`)

// typedProbe runs EXPLAIN ANALYZE q and reports whether any of its
// PathScan's probes tested its pushed filters on typed columns.
func typedProbe(t *testing.T, eng *core.Engine, q string) bool {
	t.Helper()
	res, err := eng.Execute("EXPLAIN ANALYZE " + q)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %q: %v", q, err)
	}
	for _, line := range renderRows(res, false) {
		if m := typedActuals.FindStringSubmatch(line); m != nil {
			return m[1] != "0"
		}
	}
	t.Fatalf("EXPLAIN ANALYZE %q shows no PathScan actuals", q)
	return false
}

// plannedKernel returns the physical operator EXPLAIN names for q. The
// plan line no longer carries a layout: there is one.
func plannedKernel(t *testing.T, eng *core.Engine, q string) string {
	t.Helper()
	res, err := eng.Execute("EXPLAIN " + q)
	if err != nil {
		t.Fatalf("EXPLAIN %q: %v", q, err)
	}
	plan := strings.Join(renderRows(res, false), "\n")
	if strings.Contains(plan, "layout=") {
		t.Errorf("EXPLAIN still prints a layout:\n%s", plan)
	}
	for _, k := range []string{"DFScan", "BFScan", "SPScan"} {
		if strings.Contains(plan, "PathScan["+k+"]") {
			return k
		}
	}
	t.Fatalf("EXPLAIN %q names no PathScan operator:\n%s", q, plan)
	return ""
}

// TestKernelReference is the traversal acceptance oracle: randomized
// scenarios and DML histories run on one engine, whose PathScans execute
// the CSR kernels, and after every batch each probe's rows must equal,
// in order, what graph.NewDFS / NewBFS / NewShortest — the pointer
// reference kernels the engine no longer calls — produce over the same
// topology, materialized in the canonical adjacency order the kernels
// walk. Every mutation batch lands in the view's delta, so a read that
// missed part of it shows up as a divergence. Each SHORTESTPATH probe is
// repeated until its version has a weight column, and each probe with a
// pushed filter until EXPLAIN ANALYZE reports that its filters ran over
// typed columns, so SPScan weights and pushed filters are checked both
// through their closures and through the columns.
func TestKernelReference(t *testing.T) {
	cfg := Config{Seed: 777, Workers: 2}.defaults()
	for round := 0; round < 8; round++ {
		roundSeed := RoundSeed(cfg.Seed, round)
		sc := buildScenario(cfg, roundSeed)
		eng, err := sc.newEngine()
		if err != nil {
			t.Fatalf("round %d: engine: %v", round, err)
		}
		st := datagen.NewGraphState(sc.initial)
		opRNG := rand.New(rand.NewSource(roundSeed + 1))
		colBuilds := "graphview." + sc.gv + ".column_builds"
		typedRuns := 0

		compare := func(batch int) {
			t.Helper()
			g, err := eng.GraphTopology(sc.gv)
			if err != nil {
				t.Fatalf("round %d batch %d: %v", round, batch, err)
			}
			qRNG := rand.New(rand.NewSource(checkSeed(roundSeed, batch)))
			for _, p := range sc.referenceProbes(qRNG, st) {
				kernel := p.kernel
				if planned := plannedKernel(t, eng, p.sql); kernel == "" {
					kernel = planned
				} else if planned != kernel {
					t.Fatalf("round %d batch %d: %q planned %s, hint asks for %s",
						round, batch, p.sql, planned, kernel)
				}
				want, err := p.reference(g, st, kernel)
				if err != nil {
					t.Fatalf("round %d batch %d: reference for %q: %v", round, batch, p.sql, err)
				}
				// An SPScan probe repeats until the version's binding has
				// laid out its weight column, and a filtered probe until
				// its filters have run typed once (the run after
				// typedProbe saw it), so both the closures (the binding's
				// first runs) and the columns answer them.
				builds := metricOf(eng, colBuilds)
				filtered, typed := p.selPct >= 0 || p.nameGE != "", false
				for rep := 0; ; rep++ {
					res, err := eng.Execute(p.sql)
					if err != nil {
						t.Fatalf("round %d batch %d: engine rejected %q: %v", round, batch, p.sql, err)
					}
					if got := renderRows(res, false); !sameRows(got, want) {
						t.Fatalf("round %d batch %d run %d: engine diverged from the %s reference on %q:\n engine:    %v\n reference: %v",
							round, batch, rep, kernel, p.sql, got, want)
					}
					if typed || rep >= len(st.Edges) ||
						kernel == "SPScan" && metricOf(eng, colBuilds) != builds ||
						kernel != "SPScan" && !filtered {
						break
					}
					if filtered {
						typed = typedProbe(t, eng, p.sql)
					}
				}
				if typed {
					typedRuns++
				}
			}
		}

		compare(0)
		for b := 1; b <= sc.batches; b++ {
			for j := 0; j < sc.opsPerBatch; j++ {
				m := st.Mutate(opRNG)
				if _, err := eng.Execute(sc.mutationSQL(m)); err == nil {
					st.Apply(m)
				}
			}
			compare(b)
		}

		// The engine must have answered from a CSR main, from the delta
		// after the batches that changed the topology, and from typed
		// columns, pushed filters among them.
		for _, key := range []string{"csr_builds", "csr_misses", "column_builds"} {
			if n := metricOf(eng, "graphview."+sc.gv+"."+key); n <= 0 {
				t.Errorf("round %d: %s = %d, want > 0", round, key, n)
			}
		}
		if typedRuns == 0 {
			t.Errorf("round %d: no probe's pushed filters ever ran over typed columns", round)
		}
	}
}

// TestMergePreservesProbeOrder: folding a view's delta into a new CSR main
// changes no answer. After every DML batch of TestKernelReference's
// scenarios, each probe emits the same rows in the same order immediately
// before and immediately after a forced merge.
func TestMergePreservesProbeOrder(t *testing.T) {
	cfg := Config{Seed: 778, Workers: 2}.defaults()
	for round := 0; round < 6; round++ {
		roundSeed := RoundSeed(cfg.Seed, round)
		sc := buildScenario(cfg, roundSeed)
		eng, err := sc.newEngine()
		if err != nil {
			t.Fatalf("round %d: engine: %v", round, err)
		}
		st := datagen.NewGraphState(sc.initial)
		opRNG := rand.New(rand.NewSource(roundSeed + 1))
		for b := 1; b <= sc.batches; b++ {
			for j := 0; j < sc.opsPerBatch; j++ {
				m := st.Mutate(opRNG)
				if _, err := eng.Execute(sc.mutationSQL(m)); err == nil {
					st.Apply(m)
				}
			}
			probes := sc.referenceProbes(rand.New(rand.NewSource(checkSeed(roundSeed, b))), st)
			run := func() [][]string {
				var out [][]string
				for _, p := range probes {
					res, err := eng.Execute(p.sql)
					if err != nil {
						t.Fatalf("round %d batch %d: %q: %v", round, b, p.sql, err)
					}
					out = append(out, renderRows(res, false))
				}
				return out
			}
			before := run()
			builds := metricOf(eng, "graphview."+sc.gv+".csr_builds")
			if err := eng.MergeGraphView(sc.gv); err != nil {
				t.Fatal(err)
			}
			after := run()
			for i, p := range probes {
				if !sameRows(before[i], after[i]) {
					t.Fatalf("round %d batch %d: %q changed across a merge:\n before: %v\n after:  %v",
						round, b, p.sql, before[i], after[i])
				}
			}
			if n := metricOf(eng, "graphview."+sc.gv+".csr_builds"); n > builds+1 {
				t.Fatalf("round %d batch %d: one merge laid out %d mains", round, b, n-builds)
			}
		}
	}
}

// TestOracleRunsCSRKernels proves the main differential exercises the
// kernels production runs: oracle scenarios are tiny (10–31 vertices), and
// one pass of the PathScan batteries over a fresh scenario — no analytics
// TVF involved — must already have read the view's CSR main.
func TestOracleRunsCSRKernels(t *testing.T) {
	cfg := Config{Seed: 42}.defaults()
	sc := buildScenario(cfg, RoundSeed(cfg.Seed, 0))
	eng, err := sc.newEngine()
	if err != nil {
		t.Fatal(err)
	}
	st := datagen.NewGraphState(sc.initial)
	rng := rand.New(rand.NewSource(checkSeed(sc.seed, 0)))
	if v := sc.checkQueries(eng, st, rng, 0); v != nil {
		t.Fatalf("unexpected violation: %s", v)
	}
	if v := sc.checkMetamorphic(eng, rng); v != nil {
		t.Fatalf("unexpected violation: %s", v)
	}
	for _, key := range []string{"csr_builds", "csr_hits"} {
		if n := metricOf(eng, "graphview."+sc.gv+"."+key); n <= 0 {
			t.Errorf("after the PathScan batteries %s = %d, want > 0", key, n)
		}
	}
}
