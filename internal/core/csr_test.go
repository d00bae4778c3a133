package core

import (
	"fmt"
	"strings"
	"testing"

	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// planText renders an EXPLAIN / EXPLAIN ANALYZE result to one string.
func planText(r *Result) string {
	var sb strings.Builder
	for _, row := range r.Rows {
		sb.WriteString(row[0].String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkAgainstReference runs DFScan, BFScan, SPScan and the four analytics
// TVFs over a view (edge table E) through the engine (CSR kernels) and
// compares every result, in order, with the pointer reference kernels of
// internal/graph walking the same published topology. Edge weights for the
// reference come from the edge table, not from the tuple pointers the
// engine dereferences.
func checkAgainstReference(t *testing.T, e *Engine, view string, spPairs [][2]int64) {
	t.Helper()
	g, err := e.GraphTopology(view)
	if err != nil {
		t.Fatal(err)
	}
	col := func(r *Result) []string {
		rows := render(r)
		out := make([]string, len(rows))
		for i, cells := range rows {
			out[i] = strings.Join(cells, "|")
		}
		return out
	}
	same := func(what string, got, want []string) {
		t.Helper()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: engine and pointer reference disagree\n engine:    %v\n reference: %v", what, got, want)
		}
	}

	// Multi-source DFScan / BFScan: the engine fans out of every vertex in
	// ascending-ID order, so the reference does too.
	for _, k := range []struct {
		hint string
		ref  func(*graph.Graph, graph.Spec) graph.PathIterator
	}{{"DFS", graph.NewDFS}, {"BFS", graph.NewBFS}} {
		var want []string
		g.Vertices(func(v *graph.Vertex) bool {
			it := k.ref(g, graph.Spec{Start: v, MinLen: 1, MaxLen: 3})
			for p := it.Next(); p != nil; p = it.Next() {
				want = append(want, p.String())
			}
			return true
		})
		got := col(mustExec(t, e, fmt.Sprintf(
			`SELECT PS.PathString FROM %s.Paths PS HINT(%s) WHERE PS.Length <= 3`, view, k.hint)))
		same(k.hint+"Scan", got, want)
	}

	// SPScan, two cheapest simple paths per pair.
	weights := map[int64]float64{}
	for _, row := range mustExec(t, e, `SELECT eid, w FROM E`).Rows {
		weights[row[0].I] = row[1].AsFloat()
	}
	weight := func(_ int, ed *graph.Edge, _, _ *graph.Vertex) (float64, bool) {
		return weights[ed.ID], true
	}
	for _, pair := range spPairs {
		var want []string
		if src, dst := g.Vertex(pair[0]), g.Vertex(pair[1]); src != nil && dst != nil {
			it := graph.NewShortest(g, graph.Spec{Start: src, Target: dst, MinLen: 1}, weight, 2)
			for p := it.Next(); p != nil; p = it.Next() {
				want = append(want, p.String())
			}
			if err := it.Err(); err != nil {
				t.Fatalf("reference SPScan %v: %v", pair, err)
			}
		}
		got := col(mustExec(t, e, fmt.Sprintf(
			`SELECT TOP 2 PS.PathString FROM %s.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`,
			view, pair[0], pair[1])))
		same(fmt.Sprintf("SPScan %v", pair), got, want)
	}

	// Analytics TVFs, bit-for-bit (the CSR kernels reduce floats in the
	// references' order over the same topology).
	ranks, _, err := graph.RefPageRank(nil, g, 0.85, 10, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := graph.RefComponents(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	lbl, _, err := graph.RefLabelProp(nil, g, 5)
	if err != nil {
		t.Fatal(err)
	}
	outDeg, inDeg := graph.RefDegrees(g)
	for _, tvf := range []struct {
		call string
		cols func(id int64) string // the metric columns of vertex id
	}{
		{"PAGERANK(0.85, 10)", func(id int64) string { return types.NewFloat(ranks[id]).String() }},
		{"CONNECTED_COMPONENTS()", func(id int64) string { return fmt.Sprint(comp[id]) }},
		{"LABEL_PROPAGATION(5)", func(id int64) string { return fmt.Sprint(lbl[id]) }},
		{"DEGREE_CENTRALITY()", func(id int64) string { return fmt.Sprintf("%d|%d", outDeg[id], inDeg[id]) }},
	} {
		var want []string
		g.Vertices(func(v *graph.Vertex) bool {
			want = append(want, fmt.Sprintf("%d|%s", v.ID, tvf.cols(v.ID)))
			return true
		})
		same(tvf.call, col(mustExec(t, e, `SELECT * FROM `+view+`.`+tvf.call+` X`)), want)
	}
}

// TestCSREdgeSizes runs every traversal operator and analytics TVF on the
// degenerate and tiny views that used to bypass the CSR kernels, and on a
// view that grows across the retired 256-element planner threshold between
// two reads — the second read walking the growth in the topology's delta,
// with no new main laid out.
func TestCSREdgeSizes(t *testing.T) {
	// ladder(n) has 3n-3 topology elements: n = 86 is 255, one short of
	// the old threshold.
	var ladderV, ladderE []string
	for i := 0; i < 86; i++ {
		ladderV = append(ladderV, fmt.Sprintf("(%d, 'v%d')", i, i))
		for _, d := range []int{1, 2} {
			if i+d < 86 {
				ladderE = append(ladderE, fmt.Sprintf("(%d, %d, %d, %d.5)", len(ladderE), i, i+d, d))
			}
		}
	}
	for _, tc := range []struct {
		name     string
		directed bool
		verts    string // VALUES list, empty for none
		edges    string
		spPairs  [][2]int64
		grow     string // optional DML between a first and a second check
	}{
		{name: "empty view", directed: true, spPairs: [][2]int64{{1, 2}}},
		{name: "single vertex", directed: true, verts: "(1, 'a')", spPairs: [][2]int64{{1, 1}, {1, 2}}},
		{name: "self-loop", directed: false, verts: "(1, 'a'), (2, 'b')",
			edges: "(10, 1, 1, 1.0), (11, 1, 2, 2.0)", spPairs: [][2]int64{{1, 2}, {2, 1}, {1, 1}}},
		{name: "two vertices undirected", directed: false, verts: "(1, 'a'), (2, 'b')",
			edges: "(10, 1, 2, 1.5)", spPairs: [][2]int64{{1, 2}, {2, 1}}},
		{name: "across the old 256 threshold", directed: true,
			verts: strings.Join(ladderV, ", "), edges: strings.Join(ladderE, ", "),
			spPairs: [][2]int64{{0, 85}, {85, 0}, {3, 40}},
			grow:    "INSERT INTO E VALUES (9999, 85, 0, 0.5)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{})
			mustScript(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY, name VARCHAR);
				CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE);`)
			if tc.verts != "" {
				mustExec(t, e, "INSERT INTO V VALUES "+tc.verts)
			}
			if tc.edges != "" {
				mustExec(t, e, "INSERT INTO E VALUES "+tc.edges)
			}
			dir := "DIRECTED"
			if !tc.directed {
				dir = "UNDIRECTED"
			}
			mustExec(t, e, `CREATE `+dir+` GRAPH VIEW G VERTEXES(ID = vid, name = name) FROM V
				EDGES(ID = eid, FROM = src, TO = dst, w = w) FROM E`)
			checkAgainstReference(t, e, "G", tc.spPairs)
			if tc.grow == "" {
				return
			}
			builds := metricValue(e, "graphview.G.csr_builds")
			misses := metricValue(e, "graphview.G.csr_misses")
			mustExec(t, e, tc.grow)
			checkAgainstReference(t, e, "G", tc.spPairs)
			if b := metricValue(e, "graphview.G.csr_builds"); b != builds {
				t.Errorf("csr_builds went %d -> %d across one topology insert, want no new main", builds, b)
			}
			if m := metricValue(e, "graphview.G.csr_misses"); m <= misses {
				t.Errorf("csr_misses stayed %d: the reads after the insert did not walk the delta", m)
			}
		})
	}
}

// TestCSRSnapshotStaleness proves post-DML queries never read a stale
// topology: every mutation lands in the delta the next version binds, so
// the answers always reflect the current relational state without laying
// out a new main — until a merge folds the delta in, after which reads hit
// the bare main again.
func TestCSRSnapshotStaleness(t *testing.T) {
	const n = 200
	e := ladderEngine(t, n, 0)

	reach := fmt.Sprintf(
		`SELECT PS.Length FROM Ladder.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = %d LIMIT 1`, n-1)
	reachable := func() bool {
		t.Helper()
		return len(mustExec(t, e, reach).Rows) > 0
	}

	if !reachable() {
		t.Fatal("ladder end should be reachable from vertex 0")
	}
	builds := func() int64 { return metricValue(e, "graphview.Ladder.csr_builds") }
	if b := builds(); b != 1 {
		t.Fatalf("after first query: csr_builds = %d, want 1 (the view's creation)", b)
	}

	// A repeat query on an unchanged topology reads the bare main.
	if !reachable() {
		t.Fatal("repeat query changed its answer")
	}
	if h := metricValue(e, "graphview.Ladder.csr_hits"); h < 2 {
		t.Errorf("reads of a delta-free version are not hits: csr_hits = %d", h)
	}

	// Disconnect the last vertex: the next query must see the deletion.
	mustExec(t, e, fmt.Sprintf("DELETE FROM E WHERE dst = %d", n-1))
	if reachable() {
		t.Fatal("stale topology: deleted edges still traversed")
	}
	if m := metricValue(e, "graphview.Ladder.csr_misses"); m != 1 {
		t.Errorf("post-DELETE read should walk the delta: csr_misses = %d, want 1", m)
	}

	// Reconnect it: the next query must see the insertion.
	mustExec(t, e, fmt.Sprintf("INSERT INTO E VALUES (9999, %d, %d, 1.5)", n-2, n-1))
	if !reachable() {
		t.Fatal("stale topology: inserted edge not traversed")
	}

	// An attribute UPDATE does not touch the topology.
	mustExec(t, e, "UPDATE V SET name = 'renamed' WHERE vid = 0")
	if !reachable() {
		t.Fatal("attribute update broke reachability")
	}
	if b := builds(); b != 1 {
		t.Errorf("DML laid out a new main: csr_builds = %d, want 1", b)
	}

	// A merge lays out one new main; answers and the canonical order hold.
	if err := e.MergeGraphView("Ladder"); err != nil {
		t.Fatal(err)
	}
	hits := metricValue(e, "graphview.Ladder.csr_hits")
	if !reachable() {
		t.Fatal("merge lost the inserted edge")
	}
	if b, h := builds(), metricValue(e, "graphview.Ladder.csr_hits"); b != 2 || h != hits+1 {
		t.Errorf("after a merge: csr_builds = %d (want 2), hits %d -> %d (want +1)", b, hits, h)
	}

	// EXPLAIN ANALYZE surfaces the topology counters for CSR scans.
	p := planText(mustExec(t, e, "EXPLAIN ANALYZE "+reach))
	if !strings.Contains(p, "CSR[Ladder]:") {
		t.Errorf("EXPLAIN ANALYZE missing CSR cache line:\n%s", p)
	}
}
