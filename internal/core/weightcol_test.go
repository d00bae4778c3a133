package core

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// weightEngine builds a directed ladder over n vertexes — i links to i+1
// and i+2 — whose edges carry a DOUBLE weight w and a VARCHAR tag.
func weightEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := New(Options{})
	var sb strings.Builder
	sb.WriteString(`CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, tag VARCHAR);
		CREATE TABLE other (id BIGINT PRIMARY KEY);
		INSERT INTO V VALUES `)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	sb.WriteString(";\nINSERT INTO E VALUES ")
	eid := 0
	for i := 0; i < n; i++ {
		for d := 1; d <= 2 && i+d < n; d++ {
			if eid > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d.5, 't%d')", eid, i, i+d, 1+(i*7+d)%5, eid)
			eid++
		}
	}
	sb.WriteString(`;
		CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
			EDGES(ID = eid, FROM = src, TO = dst, w = w, tag = tag) FROM E;`)
	mustScript(t, e, sb.String())
	return e
}

// runAt runs the SELECT q against the state st and renders its rows, or
// returns its error.
func runAt(e *Engine, st *dbState, q string) (string, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return "", err
	}
	res, err := selectOn(context.Background(), e, st, stmt.(*sql.Select), nil)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range render(res) {
		sb.WriteString(strings.Join(row, "|"))
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// freshBinding returns st with a new binding of gv over the same version
// and sources. Unearned, its first SPScan asks the weight closure for
// every edge; earned, it is credited with as many relaxations as the
// version holds, so its first SPScan lays out the weight column.
func freshBinding(st *dbState, gv *catalog.GraphView, earned bool) *dbState {
	at := st.ats[gv]
	fresh := &catalog.GraphViewAt{GV: gv, Topo: at.Topo, V: at.V, E: at.E}
	if earned {
		fresh.Credit(int64(at.Topo.NumEdges()))
	}
	return &dbState{seq: st.seq, cat: st.cat, snaps: st.snaps,
		ats: map[*catalog.GraphView]*catalog.GraphViewAt{gv: fresh}}
}

// TestWeightColumnMatchesClosure runs each SPScan once through the weight
// closure and once through the weight column, on fresh bindings of the
// same version, and requires the same rows or the same error text — over
// NULL, VARCHAR, NaN and negative weights, tombstoned main edges and
// delta edges, and TOP 3.
func TestWeightColumnMatchesClosure(t *testing.T) {
	const (
		top1 = `SELECT TOP 1 SUM(PS.Edges.w), PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20`
		top3 = `SELECT TOP 3 SUM(PS.Edges.w), PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 23`
		all  = `SELECT PS.EndVertex.Id, SUM(PS.Edges.w) FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 2`
		tag  = `SELECT TOP 1 PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(tag)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20`
	)
	cases := []struct {
		name    string
		dml     string
		nan     bool // set edge 12's weight, on top1's path, to NaN
		queries []string
		wantErr string
		cols    int64 // weight columns an earned binding lays out
	}{
		{name: "main", queries: []string{top1, top3, all}, cols: 1},
		{name: "tombstones and delta",
			dml: `DELETE FROM E WHERE eid IN (2, 9, 20);
				INSERT INTO E VALUES (100, 1, 7, 0.25, 'd'), (101, 7, 15, 0.25, 'd'), (102, 15, 20, 9.5, 'd');
				UPDATE E SET w = 0.5 WHERE eid = 101`,
			queries: []string{top1, top3, all}, cols: 1},
		{name: "NaN", nan: true, queries: []string{top1, top3, all}, wantErr: "NaN weight on edge 12", cols: 1},
		{name: "NULL", dml: `UPDATE E SET w = NULL WHERE eid = 12`,
			queries: []string{top1, all}, wantErr: "not numeric (kind NULL)", cols: 1},
		{name: "negative", dml: `UPDATE E SET w = -1 WHERE eid = 12`,
			queries: []string{top1, all}, wantErr: "negative weight -1 on edge 12", cols: 1},
		// A VARCHAR attribute lays out no column: the closure answers.
		{name: "VARCHAR", queries: []string{tag}, wantErr: "not numeric (kind VARCHAR)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := weightEngine(t, 25)
			if tc.dml != "" {
				mustScript(t, e, tc.dml)
			}
			if tc.nan {
				p, err := e.PrepareDML(`UPDATE E SET w = ? WHERE eid = 12`)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Exec(types.NewFloat(math.NaN())); err != nil {
					t.Fatal(err)
				}
			}
			gv := mustView(t, e, "G")
			st := e.pin()
			defer e.unpin(st)
			for _, q := range tc.queries {
				builds := gv.ColumnBuilds()
				want, wantErr := runAt(e, freshBinding(st, gv, false), q)
				if gv.ColumnBuilds() != builds {
					t.Fatalf("%s: an unearned binding laid out a weight column", q)
				}
				got, gotErr := runAt(e, freshBinding(st, gv, true), q)
				if n := gv.ColumnBuilds() - builds; n != tc.cols {
					t.Fatalf("%s: an earned binding laid out %d weight columns, want %d", q, n, tc.cols)
				}
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
					t.Fatalf("%s: the column diverged from the closure:\n column:  %q %v\n closure: %q %v",
						q, got, gotErr, want, wantErr)
				}
				switch {
				case tc.wantErr == "" && (wantErr != nil || want == ""):
					t.Fatalf("%s: want rows, got %q %v", q, want, wantErr)
				case tc.wantErr != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), tc.wantErr)):
					t.Fatalf("%s: want an error containing %q, got %q %v", q, tc.wantErr, want, wantErr)
				}
			}
		})
	}
}

// TestWeightColumnFollowsPin: a reader pinned across a weight UPDATE keeps
// its old costs even when its weight column is laid out after the
// update, and a fresh reader's column carries the new ones.
func TestWeightColumnFollowsPin(t *testing.T) {
	const q = `SELECT TOP 3 SUM(PS.Edges.w), PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20`
	e := weightEngine(t, 25)
	gv := mustView(t, e, "G")
	old := e.pin()
	defer e.unpin(old)
	before, err := runAt(e, old, q)
	if err != nil {
		t.Fatal(err)
	}

	mustExec(t, e, `UPDATE E SET w = w * 10 WHERE src < 12`)
	builds := gv.ColumnBuilds()
	old.ats[gv].Credit(int64(old.ats[gv].Topo.NumEdges()))
	if got, err := runAt(e, old, q); err != nil || got != before {
		t.Fatalf("pinned reader after the update:\n got:  %q %v\n want: %q", got, err, before)
	}
	if gv.ColumnBuilds() != builds+1 {
		t.Fatal("the pinned reader's SPScan laid out no weight column")
	}

	cur := e.pin()
	defer e.unpin(cur)
	after, err := runAt(e, freshBinding(cur, gv, false), q)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("the weight update changed no cost")
	}
	cur.ats[gv].Credit(int64(cur.ats[gv].Topo.NumEdges()))
	if got, err := runAt(e, cur, q); err != nil || got != after {
		t.Fatalf("fresh reader:\n got:  %q %v\n want: %q", got, err, after)
	}
	if gv.ColumnBuilds() != builds+2 {
		t.Fatal("the fresh reader's SPScan laid out no weight column")
	}
}

// TestLiveBindingBuildsNoWeightColumn: the writer's binding reads live
// tables, so however many edges its SPScans relax it never lays out a
// weight column — neither when asked directly nor across the many probes
// of one join.
func TestLiveBindingBuildsNoWeightColumn(t *testing.T) {
	e := weightEngine(t, 25)
	gv := mustView(t, e, "G")
	ref, err := gv.ResolveAttr(expr.ElemEdges, "w")
	if err != nil {
		t.Fatal(err)
	}
	live := gv.Live()
	live.Credit(1 << 40)
	if live.Column(expr.ElemEdges, ref) != nil {
		t.Fatal("a Live binding laid out a weight column")
	}

	st := e.pin()
	defer e.unpin(st)
	// An execution with no pin reads the live binding.
	q := `SELECT COUNT(*) FROM V U, G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = U.vid AND PS.EndVertex.Id = 24`
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	op, err := e.planner(st.cat).PlanSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(exec.NewContext(0), op); err != nil {
		t.Fatal(err)
	}
	if n := gv.ColumnBuilds(); n != 0 {
		t.Fatalf("SPScans over the live binding laid out %d weight columns", n)
	}
	// The same join over the pinned binding earns one.
	if _, err := runAt(e, st, q); err != nil {
		t.Fatal(err)
	}
	if n := gv.ColumnBuilds(); n != 1 {
		t.Fatalf("SPScans over the pinned binding laid out %d weight columns, want 1", n)
	}
}

// TestBindingSurvivesUnrelatedWrites: a publish hands back the previous
// binding of a view while its topology version and both source snapshots
// are unchanged — a write to another table keeps it, and so its weight
// column — and binds anew after a weight update, which leaves the
// topology version alone but moves the edge snapshot.
func TestBindingSurvivesUnrelatedWrites(t *testing.T) {
	e := weightEngine(t, 10)
	gv := mustView(t, e, "G")
	binding := func() *catalog.GraphViewAt {
		st := e.pin()
		defer e.unpin(st)
		return st.ats[gv]
	}
	at := binding()
	mustExec(t, e, `INSERT INTO other VALUES (1)`)
	if binding() != at {
		t.Fatal("a write to an unrelated table replaced the view's binding")
	}
	mustExec(t, e, `UPDATE E SET w = 2 WHERE eid = 0`)
	next := binding()
	if next == at {
		t.Fatal("an edge-table write kept the view's binding")
	}
	if next.Topo != at.Topo {
		t.Fatal("a weight update moved the topology version")
	}
}

var edgesTraversed = regexp.MustCompile(`edges_traversed=(\d+)`)

// analyzeEdges runs EXPLAIN ANALYZE q and returns its edges_traversed.
func analyzeEdges(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
	var text strings.Builder
	for _, row := range render(mustExec(t, e, "EXPLAIN ANALYZE "+q)) {
		text.WriteString(strings.Join(row, " ") + "\n")
	}
	m := edgesTraversed.FindStringSubmatch(text.String())
	if m == nil {
		t.Fatalf("EXPLAIN ANALYZE %s: no edges_traversed:\n%s", q, text.String())
	}
	n, _ := strconv.ParseInt(m[1], 10, 64)
	return n
}

// TestEdgesTraversedWithoutFilter: the kernels count the edges they
// consider whether or not a pushed edge filter is installed, so each
// traversal reports the same EdgesTraversed with and without an
// always-true pushed predicate.
func TestEdgesTraversedWithoutFilter(t *testing.T) {
	e := weightEngine(t, 25)
	for _, q := range []string{
		`SELECT PS.PathString FROM G.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = 0 AND PS.Length <= 4`,
		`SELECT PS.PathString FROM G.Paths PS HINT(DFS) WHERE PS.StartVertex.Id = 0 AND PS.Length <= 4`,
		`SELECT TOP 3 PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20`,
	} {
		filtered := strings.Replace(q, "WHERE ", "WHERE PS.Edges[0..*].w > -1 AND ", 1)
		if plan, err := e.Explain(filtered); err != nil || !strings.Contains(plan, "pushed=1") {
			t.Fatalf("%s: the edge predicate was not pushed (%v):\n%s", filtered, err, plan)
		}
		bare, with := analyzeEdges(t, e, q), analyzeEdges(t, e, filtered)
		if bare == 0 || bare != with {
			t.Fatalf("%s: edges_traversed = %d unfiltered, %d with an always-true filter", q, bare, with)
		}
	}
}

// TestWeightColumnAmortized: on a fresh 100k-edge binding a short SPScan
// lays out no weight column; the binding lays out exactly one, at the
// first SPScan after its SPScans have together relaxed (EdgesTraversed)
// as many edges as the version holds, and reuses it afterwards.
func TestWeightColumnAmortized(t *testing.T) {
	const nv, ne = 20_000, 100_000
	e := New(Options{})
	mustScript(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE)`)
	load := func(table string, n int, row func(i int) types.Row) {
		b, err := e.BeginBulk(table, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]types.Row, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if _, err := b.Append(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Vertex nv has no edges: a path to it explores everything reachable.
	load("V", nv+1, func(i int) types.Row { return types.Row{types.NewInt(int64(i))} })
	load("E", ne, func(i int) types.Row {
		src := i % nv
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(src)),
			types.NewInt(int64((src*7919 + i/nv*104729 + 1) % nv)), types.NewFloat(float64(1 + i%13))}
	})
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = src, TO = dst, w = w) FROM E`)
	gv := mustView(t, e, "G")

	// The length bound, which no path reaches, keeps the one-sided
	// kernel: a path to vertex nv then explores everything reachable,
	// where the two-sided kernel would stop at once.
	sp := func(dst int) string {
		return fmt.Sprintf(`SELECT TOP 1 PS.Length FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = %d AND PS.Length <= %d`, dst, nv+1)
	}
	short := analyzeEdges(t, e, sp(7919%nv+1)) // a direct neighbour of vertex 0
	if short == 0 || short >= ne/100 {
		t.Fatalf("the short SPScan relaxed %d edges", short)
	}
	if n := gv.ColumnBuilds(); n != 0 {
		t.Fatalf("a short SPScan on a fresh binding laid out %d weight columns", n)
	}
	relaxed := short
	for i := 0; i < 20 && gv.ColumnBuilds() == 0; i++ {
		earned := relaxed >= ne
		relaxed += analyzeEdges(t, e, sp(nv))
		if built := gv.ColumnBuilds() == 1; built != earned {
			t.Fatalf("after %d relaxations on a %d-edge binding: column laid out = %v", relaxed, ne, built)
		}
	}
	analyzeEdges(t, e, sp(nv))
	if n := gv.ColumnBuilds(); n != 1 {
		t.Fatalf("column_builds = %d, want 1", n)
	}
	if n := metricValue(e, "graphview.G.column_builds"); n != 1 {
		t.Fatalf("SHOW METRICS column_builds = %d, want 1", n)
	}
}

// TestWeightColumnConcurrentReaders: readers sharing one pinned binding
// credit its relaxations and ask for its column at once (run it under
// -race); they lay out exactly one column and all read the same answer.
func TestWeightColumnConcurrentReaders(t *testing.T) {
	const q = `SELECT PS.EndVertex.Id, SUM(PS.Edges.w) FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0`
	e := weightEngine(t, 40)
	gv := mustView(t, e, "G")
	st := e.pin()
	defer e.unpin(st)
	want, err := runAt(e, freshBinding(st, gv, false), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, err := runAt(e, st, q); err != nil || got != want {
					t.Errorf("concurrent reader: %q %v, want %q", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := gv.ColumnBuilds(); n != 1 {
		t.Fatalf("concurrent readers laid out %d weight columns, want 1", n)
	}
}

// TestPreparedShortestAllocs pins the cost of a prepared TOP 1
// SHORTESTPATH over a 20k-vertex, 100k-edge view: once the binding has
// laid out its weight column, an execution allocates a fixed handful of
// times (the plan's cost and the emitted row), not once per queued
// candidate — SPScan's queue comes from the pooled scratch and keeps its
// buckets' capacity. Before that, TOP 3 and TOP 1 traversals alternate on
// that scratch and every answer is checked against a Dijkstra over the
// edge list: a TOP 3 stops with entries still queued, and none may leak
// into the next traversal.
func TestPreparedShortestAllocs(t *testing.T) {
	const nv, ne = 20_000, 100_000
	e := New(Options{Workers: 1})
	mustScript(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE)`)
	rng := rand.New(rand.NewSource(1))
	src, dst, w := make([]int, ne), make([]int, ne), make([]float64, ne)
	out := make([][]int, nv) // edge indexes by source vertex
	for i := range ne {
		src[i], dst[i], w[i] = rng.Intn(nv), rng.Intn(nv), float64(rng.Intn(99))+1.5
		out[src[i]] = append(out[src[i]], i)
	}
	bulkLoad(t, e, "V", genRows(nv, func(i int) types.Row { return types.Row{types.NewInt(int64(i))} }))
	bulkLoad(t, e, "E", genRows(ne, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(src[i])),
			types.NewInt(int64(dst[i])), types.NewFloat(w[i])}
	}))
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = src, TO = dst, w = w) FROM E`)

	// dist is a lazy Dijkstra from s to t over the edge list; weights are
	// halves, so every sum is exact whatever the order.
	dist := func(s, t int) float64 {
		d := make([]float64, nv)
		for i := range d {
			d[i] = math.Inf(1)
		}
		d[s] = 0
		q := &costHeap{{0, s}}
		for q.Len() > 0 {
			top := heap.Pop(q).(costItem)
			if top.v == t {
				return top.cost
			}
			if top.cost > d[top.v] {
				continue
			}
			for _, ei := range out[top.v] {
				if c := top.cost + w[ei]; c < d[dst[ei]] {
					d[dst[ei]] = c
					heap.Push(q, costItem{c, dst[ei]})
				}
			}
		}
		return math.Inf(1)
	}
	prepare := func(k int) *Prepared {
		p, err := e.Prepare(fmt.Sprintf(`SELECT TOP %d SUM(PS.Edges.w) FROM G.Paths PS
			HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`, k))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	top1, top3 := prepare(1), prepare(3)
	costs := func(p *Prepared, s, t int) []float64 {
		r, err := p.Query(types.NewInt(int64(s)), types.NewInt(int64(t)))
		if err != nil {
			panic(err)
		}
		var c []float64
		for _, row := range r.Rows {
			c = append(c, row[0].AsFloat())
		}
		return c
	}
	for range 12 {
		s, tgt := rng.Intn(nv), rng.Intn(nv)
		want := dist(s, tgt)
		c3, c1 := costs(top3, s, tgt), costs(top1, s, tgt)
		if math.IsInf(want, 1) {
			if len(c3)+len(c1) != 0 {
				t.Fatalf("%d→%d is unreachable, yet TOP 3 gave %v and TOP 1 %v", s, tgt, c3, c1)
			}
			continue
		}
		if len(c1) != 1 || c1[0] != want || len(c3) == 0 || c3[0] != want || !slices.IsSorted(c3) {
			t.Fatalf("%d→%d costs %g: TOP 3 gave %v, then TOP 1 %v", s, tgt, want, c3, c1)
		}
	}
	if metricValue(e, "graphview.G.column_builds") != 1 {
		t.Fatal("the warm-up did not lay out the weight column")
	}
	if raceEnabled {
		return // sync.Pool drops scratches under -race
	}
	s, tgt := rng.Intn(nv), rng.Intn(nv)
	if n := testing.AllocsPerRun(20, func() { costs(top1, s, tgt) }); n > 25 {
		t.Errorf("a prepared TOP 1 SHORTESTPATH allocates %.0f times per execution, want <= 25", n)
	}
}

// TestPreparedReachAllocs pins the cost of a prepared targeted
// reachability query — traverse.read's reach template — over a
// 20k-vertex, 100k-edge view: an execution of the two-sided BFS allocates
// a fixed handful of times (the plan's row and the emitted path), not
// once per discovered vertex, since both sides' stamps, queues and parent
// slabs come from the pooled scratch. Before that, the two-sided form and
// its one-sided form (a length bound no path reaches) alternate on that
// scratch, and every answer's length is checked against a BFS over the
// edge list.
func TestPreparedReachAllocs(t *testing.T) {
	const nv, ne = 20_000, 100_000
	e := New(Options{Workers: 1})
	mustScript(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT)`)
	rng := rand.New(rand.NewSource(2))
	src, dst := make([]int, ne), make([]int, ne)
	out := make([][]int, nv) // successors by vertex
	for i := range ne {
		src[i], dst[i] = rng.Intn(nv), rng.Intn(nv)
		out[src[i]] = append(out[src[i]], dst[i])
	}
	bulkLoad(t, e, "V", genRows(nv, func(i int) types.Row { return types.Row{types.NewInt(int64(i))} }))
	bulkLoad(t, e, "E", genRows(ne, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(src[i])), types.NewInt(int64(dst[i]))}
	}))
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = src, TO = dst) FROM E`)

	// hops is a BFS from s to t over the edge list, -1 when unreachable.
	hops := func(s, t int) int64 {
		d := make([]int64, nv)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		for q := []int{s}; len(q) > 0; q = q[1:] {
			if q[0] == t {
				return d[t]
			}
			for _, x := range out[q[0]] {
				if d[x] < 0 {
					d[x] = d[q[0]] + 1
					q = append(q, x)
				}
			}
		}
		return -1
	}
	const reach = `SELECT PS.Length, PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`
	two, err := e.Prepare(reach + ` LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.Prepare(fmt.Sprintf(`%s AND PS.Length <= %d LIMIT 1`, reach, nv))
	if err != nil {
		t.Fatal(err)
	}
	length := func(p *Prepared, s, t int) int64 {
		r, err := p.Query(types.NewInt(int64(s)), types.NewInt(int64(t)))
		if err != nil {
			panic(err)
		}
		if len(r.Rows) == 0 {
			return -1
		}
		return r.Rows[0][0].I
	}
	for range 12 {
		s, tgt := rng.Intn(nv), rng.Intn(nv)
		want := hops(s, tgt)
		if l1, l2 := length(one, s, tgt), length(two, s, tgt); l1 != want || l2 != want {
			t.Fatalf("%d→%d is %d hops: the one-sided form gave %d, then the two-sided form %d", s, tgt, want, l1, l2)
		}
	}
	if raceEnabled {
		return // sync.Pool drops scratches under -race
	}
	s, tgt := rng.Intn(nv), rng.Intn(nv)
	if n := testing.AllocsPerRun(20, func() { length(two, s, tgt) }); n > 20 {
		t.Errorf("a prepared two-sided reach allocates %.0f times per execution, want <= 20", n)
	}
}

type costItem struct {
	cost float64
	v    int
}

// costHeap is a container/heap min-heap of costItems, the reference
// Dijkstra's queue.
type costHeap []costItem

func (h costHeap) Len() int           { return len(h) }
func (h costHeap) Less(i, j int) bool { return h[i].cost < h[j].cost }
func (h costHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)        { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
