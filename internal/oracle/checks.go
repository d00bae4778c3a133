package oracle

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"grfusion/internal/baselines/grail"
	"grfusion/internal/baselines/graphstore"
	"grfusion/internal/baselines/sqlgraph"
	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// The per-batch check battery. Order matters: the §3.3 maintenance oracle
// runs first and stops the battery on failure — once the live topology has
// diverged from the relational sources, every downstream query check would
// fail with confusing secondary symptoms (dangling tuple pointers, phantom
// edges), so the first broken invariant is the one reported.

// A Violation is one oracle disagreement, with everything needed to replay
// it: the round seed, the statement log up to the failure, and a minimized
// statement subset that still triggers it.
type Violation struct {
	// Check names the failed check family (e.g. "maintenance-topology").
	Check string
	// Detail is the human-readable disagreement.
	Detail string
	// Seed is the failing round's seed: `grbench oracle -seed Seed -rounds 1`
	// reproduces the round end to end.
	Seed int64
	// Batch is the DML batch index after which the check failed.
	Batch int
	// SetupSQL is the scenario DDL + initial load.
	SetupSQL []string
	// Statements is the full recorded DML log up to the failure.
	Statements []string
	// Minimized is the ddmin-reduced statement subset that still triggers
	// the same check failure after SetupSQL (nil if minimization was
	// skipped or the failure needs no statements).
	Minimized []string
}

func (v *Violation) String() string {
	return fmt.Sprintf("[%s] seed=%d batch=%d: %s", v.Check, v.Seed, v.Batch, v.Detail)
}

func violationf(check string, format string, args ...any) *Violation {
	return &Violation{Check: check, Detail: fmt.Sprintf(format, args...)}
}

// graphSig renders a canonical signature of a topology: vertex ids and edge
// (id, from, to) triples in ascending id order. withTuples additionally
// pins the tuple pointers, which must agree between the live topology and a
// rebuild from the same relational state.
func graphSig(g *graph.Graph, withTuples bool) string {
	var b strings.Builder
	g.Vertices(func(v *graph.Vertex) bool {
		if withTuples {
			fmt.Fprintf(&b, "V %d @%d\n", v.ID, v.Tuple)
		} else {
			fmt.Fprintf(&b, "V %d\n", v.ID)
		}
		return true
	})
	g.Edges(func(e *graph.Edge) bool {
		if withTuples {
			fmt.Fprintf(&b, "E %d %d->%d @%d\n", e.ID, e.From.ID, e.To.ID, e.Tuple)
		} else {
			fmt.Fprintf(&b, "E %d %d->%d\n", e.ID, e.From.ID, e.To.ID)
		}
		return true
	})
	return b.String()
}

// modelSig renders the ground-truth model in graphSig's tuple-free format.
func modelSig(st *datagen.GraphState) string {
	var b strings.Builder
	for _, id := range st.VertexIDs() {
		fmt.Fprintf(&b, "V %d\n", id)
	}
	for _, id := range st.EdgeIDs() {
		e := st.Edges[id]
		fmt.Fprintf(&b, "E %d %d->%d\n", e.ID, e.Src, e.Dst)
	}
	return b.String()
}

// diffSigs summarizes the first few differing lines of two signatures.
func diffSigs(aName, a, bName, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	aset := make(map[string]bool, len(al))
	for _, l := range al {
		aset[l] = true
	}
	bset := make(map[string]bool, len(bl))
	for _, l := range bl {
		bset[l] = true
	}
	var only []string
	for _, l := range al {
		if l != "" && !bset[l] {
			only = append(only, fmt.Sprintf("only in %s: %s", aName, l))
		}
	}
	for _, l := range bl {
		if l != "" && !aset[l] {
			only = append(only, fmt.Sprintf("only in %s: %s", bName, l))
		}
	}
	if len(only) > 6 {
		only = append(only[:6], fmt.Sprintf("... %d more", len(only)-6))
	}
	return strings.Join(only, "; ")
}

// rows renders a result set one row per string. sorted=true canonicalizes
// order-insensitive comparisons; false preserves engine order for the
// determinism checks.
func renderRows(res *core.Result, sorted bool) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

func sameRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scalarInt runs a single-value query (e.g. COUNT) and returns the value.
func scalarInt(eng *core.Engine, q string) (int64, error) {
	res, err := eng.Execute(q)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("expected one scalar, got %d rows", len(res.Rows))
	}
	return res.Rows[0][0].AsInt(), nil
}

// baselineSet holds the independent reference systems, rebuilt from the
// ground-truth model each batch so they cannot inherit an engine bug.
type baselineSet struct {
	d     *datagen.Dataset
	ref   *graph.Graph      // direct kernel reference
	wts   map[int64]float64 // edge id -> weight
	sels  map[int64]int64   // edge id -> sel
	store graphstore.GraphDB
	sg    *sqlgraph.Store
	gl    *grail.Driver
}

func buildBaselines(st *datagen.GraphState, serialized bool) (*baselineSet, error) {
	d := st.Dataset("oracle")
	bs := &baselineSet{
		d:    d,
		ref:  d.Build(),
		wts:  make(map[int64]float64, len(d.Edges)),
		sels: make(map[int64]int64, len(d.Edges)),
	}
	for _, e := range d.Edges {
		bs.wts[e.ID] = e.Weight
		bs.sels[e.ID] = e.Sel
	}
	if serialized {
		bs.store = graphstore.NewSerialized(d.Directed)
	} else {
		bs.store = graphstore.New(d.Directed)
	}
	if err := graphstore.Load(bs.store, d); err != nil {
		return nil, fmt.Errorf("graphstore load: %v", err)
	}
	var err error
	if bs.sg, err = sqlgraph.Load(d, "osg", sqlgraph.Pipelined, 0); err != nil {
		return nil, fmt.Errorf("sqlgraph load: %v", err)
	}
	if bs.gl, err = grail.Load(d, "ogl"); err != nil {
		return nil, fmt.Errorf("grail load: %v", err)
	}
	return bs, nil
}

// filtered returns the kernel reference restricted to edges with
// sel < selPct (selPct < 0 admits all).
func (bs *baselineSet) filtered(selPct int) *graph.Graph {
	if selPct < 0 {
		return bs.ref
	}
	g := graph.New("filtered", bs.d.Directed)
	for _, v := range bs.d.Vertices {
		if _, err := g.AddVertex(v.ID, uint64(v.ID)+1); err != nil {
			panic(fmt.Sprintf("oracle: %v", err))
		}
	}
	for _, e := range bs.d.Edges {
		if e.Sel < int64(selPct) {
			if _, err := g.AddEdge(e.ID, e.Src, e.Dst, uint64(e.ID)+1); err != nil {
				panic(fmt.Sprintf("oracle: %v", err))
			}
		}
	}
	return g
}

func (bs *baselineSet) storeFilter(selPct int) graphstore.EdgeFilter {
	if selPct < 0 {
		return nil
	}
	return func(p graphstore.Props) bool { return p["sel"].I < int64(selPct) }
}

// kernelReach answers reachability on the filtered reference (maxLen <= 0
// unbounded).
func (bs *baselineSet) kernelReach(src, dst int64, maxLen, selPct int) bool {
	g := bs.filtered(selPct)
	s, t := g.Vertex(src), g.Vertex(dst)
	if s == nil || t == nil {
		return false
	}
	if maxLen <= 0 {
		maxLen = g.NumVertices()
	}
	return graph.Reachable(g, s, t, maxLen)
}

// kernelShortest returns the cheapest-path cost by weight, ok=false when
// unreachable.
func (bs *baselineSet) kernelShortest(src, dst int64) (float64, bool) {
	s, t := bs.ref.Vertex(src), bs.ref.Vertex(dst)
	if s == nil || t == nil {
		return 0, false
	}
	w := func(_ int, e *graph.Edge, _, _ *graph.Vertex) (float64, bool) {
		return bs.wts[e.ID], true
	}
	p, err := graph.ShortestPath(bs.ref, s, t, w)
	if err != nil || p == nil {
		return 0, false
	}
	cost := 0.0
	for _, e := range p.Edges {
		cost += bs.wts[e.ID]
	}
	return cost, true
}

// sqlgraphReach answers distance <= k reachability as the OR over exact
// walk lengths 1..k: a walk of length j exists iff the BFS distance is <= j
// and the engine's visit-once semantics emit the distance-length path, so
// the disjunction is equivalent to the engine's `Length <= k` with both
// endpoints bound.
func (bs *baselineSet) sqlgraphReach(src, dst int64, k, selPct int) (bool, error) {
	for j := 1; j <= k; j++ {
		ok, err := bs.sg.Reachable(src, dst, j, selPct)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// selClause renders the engine-side predicate (empty when selPct < 0).
func selClause(alias string, selPct int) string {
	if selPct < 0 {
		return ""
	}
	return fmt.Sprintf(" AND %s.Edges[0..*].sel < %d", alias, selPct)
}

// checkBatch runs the whole battery against the engine after a DML batch.
// rng drives sampling only; it is seeded independently of the workload RNG
// so minimization replays re-sample identically.
func (sc *scenario) checkBatch(eng *core.Engine, st *datagen.GraphState, rng *rand.Rand, batch int) *Violation {
	if v := sc.checkMaintenance(eng, st); v != nil {
		return v
	}
	if v := sc.checkRelational(eng, st); v != nil {
		return v
	}
	if v := sc.checkFacets(eng, st); v != nil {
		return v
	}
	if v := sc.checkQueries(eng, st, rng, batch); v != nil {
		return v
	}
	if v := sc.checkMetamorphic(eng, rng); v != nil {
		return v
	}
	if v := sc.checkAnalytics(eng, st); v != nil {
		return v
	}
	if v := sc.checkSnapshot(eng); v != nil {
		return v
	}
	if v := sc.checkIsolation(eng, rng); v != nil {
		return v
	}
	return sc.checkPrepared(eng, st, rng)
}

// checkMaintenance is the §3.3 oracle: the incrementally maintained
// topology must equal a from-scratch rebuild of the current relational
// state (tuple pointers included), and both must equal the ground-truth
// model.
func (sc *scenario) checkMaintenance(eng *core.Engine, st *datagen.GraphState) *Violation {
	live, err := eng.GraphTopology(sc.gv)
	if err != nil {
		return violationf("maintenance-topology", "live topology: %v", err)
	}
	rebuilt, err := eng.RebuildGraphView(sc.gv)
	if err != nil {
		return violationf("maintenance-topology", "rebuild: %v", err)
	}
	if a, b := graphSig(live, true), graphSig(rebuilt, true); a != b {
		return violationf("maintenance-topology",
			"maintained topology diverged from rebuild: %s", diffSigs("live", a, "rebuilt", b))
	}
	if a, b := graphSig(live, false), modelSig(st); a != b {
		return violationf("maintenance-model",
			"topology diverged from ground-truth model: %s", diffSigs("engine", a, "model", b))
	}
	return nil
}

// checkRelational verifies the base tables agree with the model: row counts,
// and one edge tuple read back by primary key.
func (sc *scenario) checkRelational(eng *core.Engine, st *datagen.GraphState) *Violation {
	nv, err := scalarInt(eng, fmt.Sprintf("SELECT COUNT(*) FROM %s", sc.vt))
	if err != nil {
		return violationf("relational-count", "COUNT(%s): %v", sc.vt, err)
	}
	if int(nv) != len(st.Verts) {
		return violationf("relational-count", "%s has %d rows, model has %d vertexes", sc.vt, nv, len(st.Verts))
	}
	ne, err := scalarInt(eng, fmt.Sprintf("SELECT COUNT(*) FROM %s", sc.et))
	if err != nil {
		return violationf("relational-count", "COUNT(%s): %v", sc.et, err)
	}
	if int(ne) != len(st.Edges) {
		return violationf("relational-count", "%s has %d rows, model has %d edges", sc.et, ne, len(st.Edges))
	}
	// One point probe through the primary key — the access path of every
	// point statement — for a key the model holds and for one it does not.
	if ids := st.EdgeIDs(); len(ids) > 0 {
		e := st.Edges[ids[len(ids)/2]]
		for _, p := range []struct {
			id   int64
			want []string
		}{{e.ID, []string{fmt.Sprintf("%d|%d", e.Src, e.Dst)}}, {ids[len(ids)-1] + 1, []string{}}} {
			q := fmt.Sprintf("SELECT %s, %s FROM %s WHERE %s = %d",
				sc.eCols["src"], sc.eCols["dst"], sc.et, sc.eCols["eid"], p.id)
			res, err := eng.Execute(q)
			if err != nil {
				return violationf("relational-point", "engine %q: %v", q, err)
			}
			if got := renderRows(res, true); !sameRows(got, p.want) {
				return violationf("relational-point", "%q: engine %v, model %v", q, got, p.want)
			}
		}
	}
	return nil
}

// checkFacets verifies the GV.VERTEXES / GV.EDGES projections — every
// attribute access dereferences a tuple pointer, so this catches stale or
// dangling pointers that pure topology diffs cannot.
func (sc *scenario) checkFacets(eng *core.Engine, st *datagen.GraphState) *Violation {
	res, err := eng.Execute(fmt.Sprintf(
		"SELECT VS.Id, VS.name, VS.FanOut, VS.FanIn FROM %s.Vertexes VS", sc.gv))
	if err != nil {
		return violationf("facet-vertexes", "query: %v", err)
	}
	got := renderRows(res, true)
	want := make([]string, 0, len(st.Verts))
	for _, id := range st.VertexIDs() {
		want = append(want, fmt.Sprintf("%d|%s|%d|%d", id, st.Verts[id], st.FanOut(id), st.FanIn(id)))
	}
	sort.Strings(want)
	if !sameRows(got, want) {
		return violationf("facet-vertexes", "VERTEXES projection mismatch: engine %v, model %v", got, want)
	}

	res, err = eng.Execute(fmt.Sprintf(
		"SELECT ES.ID, ES.sel, ES.lbl FROM %s.Edges ES", sc.gv))
	if err != nil {
		return violationf("facet-edges", "query: %v", err)
	}
	got = renderRows(res, true)
	want = want[:0]
	for _, id := range st.EdgeIDs() {
		e := st.Edges[id]
		want = append(want, fmt.Sprintf("%d|%d|%s", id, e.Sel, e.Label))
	}
	sort.Strings(want)
	if !sameRows(got, want) {
		return violationf("facet-edges", "EDGES projection mismatch: engine %v, model %v", got, want)
	}
	return nil
}

// checkQueries cross-checks sampled PATHS queries against the four
// independent oracles.
func (sc *scenario) checkQueries(eng *core.Engine, st *datagen.GraphState, rng *rand.Rand, batch int) *Violation {
	verts := st.VertexIDs()
	if len(verts) < 2 {
		return nil
	}
	bs, err := buildBaselines(st, batch%2 == 1)
	if err != nil {
		return violationf("baseline-setup", "%v", err)
	}

	samplePair := func() (int64, int64) {
		s := verts[rng.Intn(len(verts))]
		t := verts[rng.Intn(len(verts))]
		for t == s {
			t = verts[rng.Intn(len(verts))]
		}
		return s, t
	}

	// sqlgraph's join-based translation enumerates ~degree^k walks; gate it
	// the way the benchmarks gate their pipelined runs.
	deg := bs.d.AvgDegree()
	if !bs.d.Directed {
		deg *= 2
	}
	sqlgraphOK := func(k int) bool { return math.Pow(math.Max(deg, 1), float64(k)) < 2e5 }

	for i := 0; i < 4; i++ {
		src, dst := samplePair()
		selPct := -1
		if rng.Intn(2) == 0 {
			selPct = 10 + rng.Intn(80)
		}
		if i == 3 { // one probe against a vertex that does not exist
			dst = st.VertexIDs()[len(verts)-1] + 1000
		}

		// Unbounded reachability. Without a pushed predicate the plain
		// query searches from both ends; it runs beside its one-sided
		// form, and the path it returns must be one of the model's.
		q := fmt.Sprintf(
			"SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d%s",
			sc.gv, src, dst, selClause("PS", selPct))
		res, v := sc.bothSides(eng, "reach", q, " LIMIT 1", selPct < 0, len(verts), pathHops)
		if v != nil {
			return v
		}
		engReach := len(res.Rows) > 0
		if engReach {
			if err := modelPath(st, res.Rows[0][0].S, src, dst, selPct); err != nil {
				return violationf("reach", "engine %q answers %s: %v", q, res.Rows[0][0].S, err)
			}
		}
		kernReach := bs.kernelReach(src, dst, 0, selPct)
		storeReach := graphstore.Reachable(bs.store, src, dst, 0, bs.storeFilter(selPct))
		glReach, err := bs.gl.Reachable(src, dst, 0, selPct)
		if err != nil {
			return violationf("reach", "grail(%d,%d): %v", src, dst, err)
		}
		if engReach != kernReach || engReach != storeReach || engReach != glReach {
			return violationf("reach",
				"reach(%d->%d, sel<%d) disagrees: engine=%v kernel=%v graphstore=%v grail=%v",
				src, dst, selPct, engReach, kernReach, storeReach, glReach)
		}

		// Bounded reachability (skip the dangling-endpoint probe: every
		// system already agreed it is unreachable).
		if i == 3 {
			continue
		}
		k := 1 + rng.Intn(4)
		q = fmt.Sprintf(
			"SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d AND PS.Length <= %d%s LIMIT 1",
			sc.gv, src, dst, k, selClause("PS", selPct))
		res, err = eng.Execute(q)
		if err != nil {
			return violationf("reach-bounded", "engine %q: %v", q, err)
		}
		engReach = len(res.Rows) > 0
		kernReach = bs.kernelReach(src, dst, k, selPct)
		storeReach = graphstore.Reachable(bs.store, src, dst, k, bs.storeFilter(selPct))
		glReach, err = bs.gl.Reachable(src, dst, k, selPct)
		if err != nil {
			return violationf("reach-bounded", "grail(%d,%d,%d): %v", src, dst, k, err)
		}
		if engReach != kernReach || engReach != storeReach || engReach != glReach {
			return violationf("reach-bounded",
				"reach(%d->%d, len<=%d, sel<%d) disagrees: engine=%v kernel=%v graphstore=%v grail=%v",
				src, dst, k, selPct, engReach, kernReach, storeReach, glReach)
		}
		if sqlgraphOK(k) {
			sgReach, err := bs.sqlgraphReach(src, dst, k, selPct)
			if err != nil {
				return violationf("reach-bounded", "sqlgraph(%d,%d,%d): %v", src, dst, k, err)
			}
			if engReach != sgReach {
				return violationf("reach-bounded",
					"reach(%d->%d, len<=%d, sel<%d) disagrees: engine=%v sqlgraph=%v",
					src, dst, k, selPct, engReach, sgReach)
			}
		}

		// Shortest path cost. Weights are integer-valued by construction so
		// the four Dijkstra/Bellman-Ford variants must agree exactly. The
		// engine answers twice, at 1 and at 4 workers: through the
		// two-sided kernel the plain query plans, and through the
		// one-sided kernel a length bound no path reaches keeps.
		q = fmt.Sprintf(
			"SELECT TOP 1 SUM(PS.Edges.w) FROM %s.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d",
			sc.gv, src, dst)
		res, v = sc.bothSides(eng, "shortest-path", q, "", true, len(verts), func(r *core.Result) string {
			if len(r.Rows) == 0 {
				return "none"
			}
			return fmt.Sprint(r.Rows[0][0].AsFloat())
		})
		if v != nil {
			return v
		}
		engOK, engCost := len(res.Rows) > 0, 0.0
		if engOK {
			engCost = res.Rows[0][0].AsFloat()
		}
		kCost, kOK := bs.kernelShortest(src, dst)
		sCost, _, sOK := graphstore.ShortestPath(bs.store, src, dst, "w", nil)
		gCost, gOK, err := bs.gl.ShortestPath(src, dst, -1)
		if err != nil {
			return violationf("shortest-path", "grail(%d,%d): %v", src, dst, err)
		}
		if engOK != kOK || engOK != sOK || engOK != gOK {
			return violationf("shortest-path",
				"sp(%d->%d) existence disagrees: engine=%v kernel=%v graphstore=%v grail=%v",
				src, dst, engOK, kOK, sOK, gOK)
		}
		if engOK && (engCost != kCost || engCost != sCost || engCost != gCost) {
			return violationf("shortest-path",
				"sp(%d->%d) cost disagrees: engine=%g kernel=%g graphstore=%g grail=%g",
				src, dst, engCost, kCost, sCost, gCost)
		}
	}

	// Triangle counting (Listing 4's pattern). The three systems share
	// closed length-3 path multiplicity semantics on undirected graphs
	// (cross-validated by the Fig10 experiment); directed conventions
	// differ, so the cross-check is undirected-only.
	if !sc.directed && sqlgraphOK(3) {
		selPct := 20 + rng.Intn(81)
		q := fmt.Sprintf(
			"SELECT COUNT(P) FROM %s.Paths P WHERE P.Length = 3 AND P.Edges[0..*].sel < %d AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
			sc.gv, selPct)
		engTri, err := scalarInt(eng, q)
		if err != nil {
			return violationf("triangles", "engine %q: %v", q, err)
		}
		storeTri := int64(graphstore.CountTriangles(bs.store, bs.storeFilter(selPct)))
		sgTri, err := bs.sg.CountTriangles(selPct)
		if err != nil {
			return violationf("triangles", "sqlgraph: %v", err)
		}
		if engTri != storeTri || engTri != sgTri {
			return violationf("triangles",
				"triangles(sel<%d) disagree: engine=%d graphstore=%d sqlgraph=%d",
				selPct, engTri, storeTri, sgTri)
		}
	}
	return nil
}

// bothSides runs the path query q with tail appended in its planned form,
// which searches from both ends iff twoSided, and in the one-sided form a
// length bound of maxLen keeps, at 1 and at 4 workers. check names the
// violation. Every run must give the same answer, as rendered by answer;
// the planned form's result at 1 worker is returned.
func (sc *scenario) bothSides(eng *core.Engine, check, q, tail string, twoSided bool, maxLen int,
	answer func(*core.Result) string) (*core.Result, *Violation) {
	defer eng.SetWorkers(sc.workers)
	forms := []struct {
		q   string
		two bool
	}{
		{q + tail, twoSided},
		{fmt.Sprintf("%s AND PS.Length <= %d%s", q, maxLen, tail), false},
	}
	var first *core.Result
	for _, w := range []int{1, 4} {
		eng.SetWorkers(w)
		for _, f := range forms {
			plan, err := eng.Explain(f.q)
			if err != nil || strings.Contains(plan, "sides=2") != f.two {
				return nil, violationf(check, "engine plans %q with two sides %v, want %v (%v):\n%s",
					f.q, !f.two, f.two, err, plan)
			}
			res, err := eng.Execute(f.q)
			if err != nil {
				return nil, violationf(check, "engine %q at %d workers: %v", f.q, w, err)
			}
			if first == nil {
				first = res
			} else if got, want := answer(res), answer(first); got != want {
				return nil, violationf(check,
					"%q at %d workers answers %s, the planned form at 1 worker %s", f.q, w, got, want)
			}
		}
	}
	return first, nil
}

// pathHops renders a reachability result as its path's hop count, or
// "none".
func pathHops(r *core.Result) string {
	if len(r.Rows) == 0 {
		return "none"
	}
	return fmt.Sprint(strings.Count(r.Rows[0][0].S, "->"))
}

// modelPath checks that the PathString ps ("5-[43]->4-[97]->13") is a
// simple src→dst path of the model whose every edge has sel < selPct (any
// sel when selPct < 0).
func modelPath(st *datagen.GraphState, ps string, src, dst int64, selPct int) error {
	var verts, edges []int64
	for _, hop := range strings.Split(ps, "->") {
		vs, es, hasEdge := strings.Cut(hop, "-[")
		v, err := strconv.ParseInt(vs, 10, 64)
		if err != nil {
			return err
		}
		verts = append(verts, v)
		if hasEdge {
			e, err := strconv.ParseInt(strings.TrimSuffix(es, "]"), 10, 64)
			if err != nil {
				return err
			}
			edges = append(edges, e)
		}
	}
	if len(verts) != len(edges)+1 || verts[0] != src || verts[len(verts)-1] != dst {
		return fmt.Errorf("not a path from %d to %d", src, dst)
	}
	seen := map[int64]bool{}
	for i, v := range verts {
		if seen[v] {
			return fmt.Errorf("vertex %d repeats", v)
		}
		seen[v] = true
		if i == len(edges) {
			break
		}
		from, to := v, verts[i+1]
		e, ok := st.Edges[edges[i]]
		if !ok || !(e.Src == from && e.Dst == to || !st.Directed && e.Src == to && e.Dst == from) {
			return fmt.Errorf("step %d (%d to %d over edge %d) is not an edge of the model", i, from, to, edges[i])
		}
		if selPct >= 0 && e.Sel >= int64(selPct) {
			return fmt.Errorf("edge %d has sel %d, not below %d", e.ID, e.Sel, selPct)
		}
	}
	return nil
}

// multiCount is the multi-source path count the metamorphic relations are
// phrased over. HINT(BFS) pins the visit-once traversal to minimum-depth
// visits, the regime where the monotonicity relations are exact.
func (sc *scenario) multiCount(eng *core.Engine, k, selPct int) (int64, error) {
	return scalarInt(eng, fmt.Sprintf(
		"SELECT COUNT(*) FROM %s.Paths PS HINT(BFS) WHERE PS.Length <= %d%s",
		sc.gv, k, selClause("PS", selPct)))
}

// checkMetamorphic verifies relations that need no reference oracle:
// tightening a predicate or shortening the length bound never grows the
// result, and results are identical at any worker count.
func (sc *scenario) checkMetamorphic(eng *core.Engine, rng *rand.Rand) *Violation {
	lo := 10 + rng.Intn(40)
	hi := lo + 10 + rng.Intn(40)

	cLo, err := sc.multiCount(eng, 2, lo)
	if err != nil {
		return violationf("metamorphic-sel", "count(sel<%d): %v", lo, err)
	}
	cHi, err := sc.multiCount(eng, 2, hi)
	if err != nil {
		return violationf("metamorphic-sel", "count(sel<%d): %v", hi, err)
	}
	cAll, err := sc.multiCount(eng, 2, -1)
	if err != nil {
		return violationf("metamorphic-sel", "count(no pred): %v", err)
	}
	if cLo > cHi || cHi > cAll {
		return violationf("metamorphic-sel",
			"predicate monotonicity broken: count(sel<%d)=%d count(sel<%d)=%d count(all)=%d",
			lo, cLo, hi, cHi, cAll)
	}

	var prev int64 = -1
	for k := 1; k <= 3; k++ {
		c, err := sc.multiCount(eng, k, hi)
		if err != nil {
			return violationf("metamorphic-length", "count(len<=%d): %v", k, err)
		}
		if c < prev {
			return violationf("metamorphic-length",
				"length monotonicity broken: count(len<=%d)=%d < count(len<=%d)=%d", k, c, k-1, prev)
		}
		prev = c
	}

	// Worker-count invariance: the parallel multi-source scan must return
	// byte-identical rows at any pool size (PR 1's determinism contract).
	q := fmt.Sprintf(
		"SELECT PS.PathString FROM %s.Paths PS HINT(BFS) WHERE PS.Length <= 2%s",
		sc.gv, selClause("PS", hi))
	eng.SetWorkers(1)
	res1, err1 := eng.Execute(q)
	eng.SetWorkers(4)
	res4, err4 := eng.Execute(q)
	eng.SetWorkers(sc.workers)
	if err1 != nil || err4 != nil {
		return violationf("metamorphic-workers", "query: w1=%v w4=%v", err1, err4)
	}
	if r1, r4 := renderRows(res1, false), renderRows(res4, false); !sameRows(r1, r4) {
		return violationf("metamorphic-workers",
			"results differ between 1 and 4 workers: %d vs %d rows", len(r1), len(r4))
	}
	return nil
}

// checkSnapshot verifies a Snapshot/Restore round-trip preserves both the
// relational state and the rebuilt graph-view topology.
func (sc *scenario) checkSnapshot(eng *core.Engine) *Violation {
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		return violationf("snapshot-roundtrip", "snapshot: %v", err)
	}
	e2 := core.New(core.Options{Workers: sc.workers})
	if err := e2.Restore(&buf); err != nil {
		return violationf("snapshot-roundtrip", "restore: %v", err)
	}
	live, err := eng.GraphTopology(sc.gv)
	if err != nil {
		return violationf("snapshot-roundtrip", "live topology: %v", err)
	}
	restored, err := e2.GraphTopology(sc.gv)
	if err != nil {
		return violationf("snapshot-roundtrip", "restored topology: %v", err)
	}
	if a, b := graphSig(live, false), graphSig(restored, false); a != b {
		return violationf("snapshot-roundtrip",
			"topology changed across snapshot round-trip: %s", diffSigs("live", a, "restored", b))
	}
	for _, q := range []string{
		fmt.Sprintf("SELECT VS.Id, VS.name, VS.FanOut, VS.FanIn FROM %s.Vertexes VS", sc.gv),
		fmt.Sprintf("SELECT ES.ID, ES.sel, ES.lbl FROM %s.Edges ES", sc.gv),
	} {
		r1, err1 := eng.Execute(q)
		r2, err2 := e2.Execute(q)
		if err1 != nil || err2 != nil {
			return violationf("snapshot-roundtrip", "%q: live=%v restored=%v", q, err1, err2)
		}
		if !sameRows(renderRows(r1, true), renderRows(r2, true)) {
			return violationf("snapshot-roundtrip", "%q differs across round-trip", q)
		}
	}
	return nil
}

// checkIsolation is the MVCC snapshot-isolation oracle. Writers serialize
// and each successful statement publishes exactly one version, so the only
// edge sets a concurrent reader may legally observe during a sequential
// insert storm are the pre-storm set plus a PREFIX of the storm's edges —
// one published version each. Readers poll the edge facet while the storm
// runs; any non-prefix observation (an edge visible before its
// predecessor, a pre-storm edge missing, a phantom) is a torn read across
// versions. The differential closes against the quiesced engine: once the
// storm finishes, the facet and a from-scratch topology rebuild must both
// equal the full set. The storm runs on a scratch engine restored from the
// round's current state, so the round engine and model stay untouched.
func (sc *scenario) checkIsolation(eng *core.Engine, rng *rand.Rand) *Violation {
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		return violationf("isolation", "snapshot: %v", err)
	}
	e2 := core.New(core.Options{Workers: sc.workers})
	if err := e2.Restore(&buf); err != nil {
		return violationf("isolation", "restore: %v", err)
	}

	edgeQ := fmt.Sprintf("SELECT ES.ID FROM %s.Edges ES", sc.gv)
	readEdgeIDs := func() (map[int64]bool, error) {
		res, err := e2.Execute(edgeQ)
		if err != nil {
			return nil, err
		}
		ids := make(map[int64]bool, len(res.Rows))
		for _, r := range res.Rows {
			ids[r[0].I] = true
		}
		return ids, nil
	}
	pre, err := readEdgeIDs()
	if err != nil {
		return violationf("isolation", "baseline %q: %v", edgeQ, err)
	}

	// Concurrent readers: poll the facet until told to stop, recording
	// every observation. The rng only varies the storm's ID base; reader
	// scheduling is free-running — the check cannot false-positive on an
	// unlucky interleaving, every interleaving must still be some prefix.
	type obs struct {
		ids map[int64]bool
		err error
	}
	var (
		obsMu        sync.Mutex
		observations []obs
		wg           sync.WaitGroup
	)
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids, err := readEdgeIDs()
				obsMu.Lock()
				observations = append(observations, obs{ids: ids, err: err})
				obsMu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	stopped := false
	stopReaders := func() {
		if !stopped {
			stopped = true
			close(stop)
			wg.Wait()
		}
	}
	defer stopReaders()

	// The storm: a chain of fresh vertices, each wired to the previous by
	// a fresh edge. IDs sit far above anything the workload generators
	// produce, so the inserts are always valid.
	const stormLen = 10
	base := int64(9_000_000) + int64(rng.Intn(1000))*1000
	if _, err := e2.Execute(fmt.Sprintf("INSERT INTO %s VALUES %s", sc.vt,
		sc.vertexValues(datagen.Vertex{ID: base, Name: "iso0"}))); err != nil {
		return violationf("isolation", "storm vertex: %v", err)
	}
	stormEdges := make([]int64, 0, stormLen)
	for i := 1; i <= stormLen; i++ {
		vid := base + int64(i)
		if _, err := e2.Execute(fmt.Sprintf("INSERT INTO %s VALUES %s", sc.vt,
			sc.vertexValues(datagen.Vertex{ID: vid, Name: fmt.Sprintf("iso%d", i)}))); err != nil {
			return violationf("isolation", "storm vertex: %v", err)
		}
		eid := base + int64(i)
		if _, err := e2.Execute(fmt.Sprintf("INSERT INTO %s VALUES %s", sc.et,
			sc.edgeValues(datagen.Edge{ID: eid, Src: vid - 1, Dst: vid, Weight: 1, Sel: 50, Label: "x"}))); err != nil {
			return violationf("isolation", "storm edge: %v", err)
		}
		stormEdges = append(stormEdges, eid)
	}
	stopReaders()

	for _, o := range observations {
		if o.err != nil {
			return violationf("isolation", "concurrent reader: %v", o.err)
		}
		n := 0
		for _, eid := range stormEdges {
			if o.ids[eid] {
				n++
			}
		}
		for i, eid := range stormEdges {
			if o.ids[eid] != (i < n) {
				return violationf("isolation",
					"torn read: %d storm edges visible but edge #%d (%d) breaks the prefix", n, i, eid)
			}
		}
		for eid := range pre {
			if !o.ids[eid] {
				return violationf("isolation", "torn read: pre-storm edge %d missing mid-storm", eid)
			}
		}
		if len(o.ids) != len(pre)+n {
			return violationf("isolation",
				"torn read: observed %d edges, want %d pre-storm + %d storm prefix",
				len(o.ids), len(pre), n)
		}
	}

	// Quiesced close: the facet equals the full set and agrees with a
	// from-scratch rebuild of the scratch engine's topology.
	post, err := readEdgeIDs()
	if err != nil {
		return violationf("isolation", "quiesced %q: %v", edgeQ, err)
	}
	if len(post) != len(pre)+stormLen {
		return violationf("isolation", "quiesced facet has %d edges, want %d", len(post), len(pre)+stormLen)
	}
	live, err := e2.GraphTopology(sc.gv)
	if err != nil {
		return violationf("isolation", "live topology: %v", err)
	}
	rebuilt, err := e2.RebuildGraphView(sc.gv)
	if err != nil {
		return violationf("isolation", "rebuild: %v", err)
	}
	if a, b := graphSig(live, true), graphSig(rebuilt, true); a != b {
		return violationf("isolation",
			"post-storm topology diverged from rebuild: %s", diffSigs("live", a, "rebuilt", b))
	}
	return nil
}

// preparedTemplates are the statements every scenario engine prepares
// once, right after its view exists (newEngine), and checkPrepared runs
// after every batch. In q, %[1]s is the view, %[2]s the vertex table and
// %[3]s/%[4]s its id and name columns; params draws one batch's `?`
// values from a vertex sampler. The enumerations carry no traversal hint,
// so §6.3's BFS/DFS rule picks their kernel from each version's fan-out.
var preparedTemplates = []struct {
	check, q string
	params   func(vertex func() int64, rng *rand.Rand) []types.Value
}{
	{"reach", "SELECT PS.PathString FROM %[1]s.Paths PS WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1", twoVertexes},
	{"bounded-count", "SELECT COUNT(*) FROM %[1]s.Paths PS WHERE PS.StartVertex.Id = ? AND PS.Length <= 3 AND PS.Edges[0..*].sel < ?",
		func(vertex func() int64, rng *rand.Rand) []types.Value {
			return []types.Value{types.NewInt(vertex()), types.NewInt(int64(10 + rng.Intn(80)))}
		}},
	{"enumeration", "SELECT COUNT(*) FROM %[1]s.Paths PS WHERE PS.Length <= 2", noParams},
	{"shortest-path", "SELECT TOP 1 SUM(PS.Edges.w), PS.PathString FROM %[1]s.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?", twoVertexes},
	{"analytics", "SELECT MAX(X.rank), COUNT(*) FROM %[1]s.PAGERANK(?, 20) X",
		func(_ func() int64, rng *rand.Rand) []types.Value {
			return []types.Value{types.NewFloat([]float64{0.5, 0.85}[rng.Intn(2)])}
		}},
	{"analytics", "SELECT * FROM %[1]s.CONNECTED_COMPONENTS() X", noParams},
	{"relational", "SELECT %[4]s FROM %[2]s WHERE %[3]s = ?",
		func(vertex func() int64, _ *rand.Rand) []types.Value { return []types.Value{types.NewInt(vertex())} }},
}

func twoVertexes(vertex func() int64, _ *rand.Rand) []types.Value {
	return []types.Value{types.NewInt(vertex()), types.NewInt(vertex())}
}

func noParams(func() int64, *rand.Rand) []types.Value { return nil }

// preparedSet is the templates one engine prepared.
type preparedSet struct {
	eng   *core.Engine
	stmts []*core.Prepared
}

// template renders preparedTemplates[i]'s SQL for the scenario.
func (sc *scenario) template(i int) string {
	return fmt.Sprintf(preparedTemplates[i].q, sc.gv, sc.vt, sc.vCols["vid"], sc.vCols["name"])
}

// prepare prepares every template on eng, the engine the scenario checks
// next.
func (sc *scenario) prepare(eng *core.Engine) error {
	sc.prepared = preparedSet{eng: eng}
	for i := range preparedTemplates {
		p, err := eng.Prepare(sc.template(i))
		if err != nil {
			return fmt.Errorf("prepare %q: %v", sc.template(i), err)
		}
		sc.prepared.stmts = append(sc.prepared.stmts, p)
	}
	return nil
}

// checkPrepared is the cached-versus-fresh plan oracle: each template,
// prepared before any batch of writes and never prepared again, must
// answer with the same rows (in the same order) or the same error text as
// its ad hoc form with the batch's parameters spelled as literals, which
// is planned afresh on the current version.
func (sc *scenario) checkPrepared(eng *core.Engine, st *datagen.GraphState, rng *rand.Rand) *Violation {
	if sc.prepared.eng != eng {
		return violationf("prepared", "the engine under check prepared no templates")
	}
	verts := st.VertexIDs()
	vertex := func() int64 {
		if len(verts) == 0 {
			return 0
		}
		return verts[rng.Intn(len(verts))]
	}
	outcome := func(res *core.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return strings.Join(renderRows(res, false), "\n")
	}
	for i, t := range preparedTemplates {
		params := t.params(vertex, rng)
		adhoc := sc.template(i)
		for _, v := range params {
			adhoc = strings.Replace(adhoc, "?", v.String(), 1)
		}
		got := outcome(sc.prepared.stmts[i].Query(params...))
		want := outcome(eng.Execute(adhoc))
		if got != want {
			return violationf("prepared-"+t.check, "prepared %q with %v answers\n%s\nad hoc %q answers\n%s",
				sc.template(i), params, got, adhoc, want)
		}
	}
	return nil
}
