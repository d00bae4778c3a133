package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"grfusion/internal/graph"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// rowsOf runs q and renders its rows (lines).
func rowsOf(t *testing.T, e *Engine, q string) string {
	t.Helper()
	return lines(mustExec(t, e, q))
}

// lines renders a result one row per line; floats render in their
// shortest round-trip form, so equal text is equal bits.
func lines(r *Result) string {
	var sb strings.Builder
	for _, row := range render(r) {
		sb.WriteString(strings.Join(row, "|"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestAnalyticsMemoKeys: every iterative function's memo is keyed by all
// of its arguments. Each query runs twice in a row on one engine — a miss,
// then a hit — and both must equal the query on a fresh engine, which can
// only miss. A key that ignored damping or iterations would hand the
// previous query's result to the next one.
func TestAnalyticsMemoKeys(t *testing.T) {
	queries := []string{
		`SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`,
		`SELECT * FROM Ladder.PAGERANK(0.5, 20) PR`,
		`SELECT * FROM Ladder.PAGERANK(0.5, 3) PR`,
		`SELECT * FROM Ladder.PAGERANK() PR`,
		`SELECT * FROM Ladder.LABEL_PROPAGATION(1) LP`,
		`SELECT * FROM Ladder.LABEL_PROPAGATION(10) LP`,
		`SELECT * FROM Ladder.CONNECTED_COMPONENTS() CC`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = rowsOf(t, ladderEngine(t, 120, 2), q)
	}
	for i := 1; i < 3; i++ {
		if want[i] == want[i-1] {
			t.Fatalf("%s and %s agree: the test cannot tell their keys apart", queries[i-1], queries[i])
		}
	}
	if want[4] == want[5] {
		t.Fatal("LABEL_PROPAGATION(1) and (10) agree: the test cannot tell their keys apart")
	}

	e := ladderEngine(t, 120, 2)
	hits0 := metricValue(e, "analytics.memo_hits")
	for i, q := range queries {
		for run, memo := range []string{"miss", "hit"} {
			if got := rowsOf(t, e, q); got != want[i] {
				t.Fatalf("%s, run %d (%s): rows differ from a fresh engine's", q, run+1, memo)
			}
		}
	}
	if hits := metricValue(e, "analytics.memo_hits") - hits0; hits != int64(len(queries)) {
		t.Fatalf("analytics.memo_hits rose by %d over %d repeated queries, want %d", hits, len(queries), len(queries))
	}

	// EXPLAIN ANALYZE reports the hit, and a hit pulls no edge.
	p := planText(mustExec(t, e, `EXPLAIN ANALYZE `+queries[len(queries)-1]))
	for _, s := range []string{"memo=hit", "edges_traversed=0"} {
		if !strings.Contains(p, s) {
			t.Errorf("EXPLAIN ANALYZE of a memo hit lacks %q:\n%s", s, p)
		}
	}
	p = planText(mustExec(t, e, `EXPLAIN ANALYZE SELECT * FROM Ladder.PAGERANK(0.7, 4) PR`))
	if !strings.Contains(p, "runs=1 iters=4 topdown_levels=0 bottomup_levels=0 memo=miss") ||
		strings.Contains(p, "edges_traversed=0") {
		t.Errorf("EXPLAIN ANALYZE of a memo miss:\n%s", p)
	}
}

// TestAnalyticsMemoDiesWithVersion: an edge INSERT makes a new topology
// version, whose first PAGERANK must run the kernel over the new edge, not
// return the old version's ranks.
func TestAnalyticsMemoDiesWithVersion(t *testing.T) {
	const q = `SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`
	const ins = `INSERT INTO E VALUES (100000, 100, 3, 1.5)`
	e := ladderEngine(t, 120, 2)
	before := rowsOf(t, e, q)
	mustExec(t, e, ins)
	hits := metricValue(e, "analytics.memo_hits")
	after := rowsOf(t, e, q)
	if after == before {
		t.Fatal("PAGERANK after an edge INSERT returned the ranks from before it")
	}
	if metricValue(e, "analytics.memo_hits") != hits {
		t.Fatal("the first PAGERANK on a new version was a memo hit")
	}
	fresh := ladderEngine(t, 120, 2)
	mustExec(t, fresh, ins)
	if want := rowsOf(t, fresh, q); after != want {
		t.Fatal("PAGERANK after an edge INSERT differs from a fresh engine's")
	}
}

// TestAnalyticsMemoOwnsItsArrays: a memoized result must not share memory
// with the pooled kernel scratch, which the next run of any function over
// the same main overwrites. Components followed by label propagation on
// one version, and two PAGERANKs with different arguments on two versions
// of one main (a reader pinned to the first), each reread afterwards.
func TestAnalyticsMemoOwnsItsArrays(t *testing.T) {
	e := ladderEngine(t, 120, 1)
	const cc = `SELECT * FROM Ladder.CONNECTED_COMPONENTS() CC`
	first := rowsOf(t, e, cc)
	rowsOf(t, e, `SELECT * FROM Ladder.LABEL_PROPAGATION(1) LP`)
	if got := rowsOf(t, e, cc); got != first {
		t.Fatal("CONNECTED_COMPONENTS reread after LABEL_PROPAGATION changed")
	}

	const pr1, pr2 = `SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`, `SELECT * FROM Ladder.PAGERANK(0.5, 10) PR`
	st := e.pin()
	defer e.unpin(st)
	want, err := runAt(e, st, pr1)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO E VALUES (100000, 100, 3, 1.5)`)
	cur := e.pin()
	delta := cur.GraphView(mustView(t, e, "Ladder")).Topo.DeltaLen()
	e.unpin(cur)
	if delta == 0 {
		t.Fatal("the INSERT laid out a new main: the two versions share no scratch pool")
	}
	rowsOf(t, e, pr2)
	if got, err := runAt(e, st, pr1); err != nil || got != want {
		t.Fatalf("PAGERANK reread on the pinned version changed (err %v)", err)
	}
}

// TestAnalyticsMemoDeltaOrder: a version with a delta numbers its vertexes
// out of identifier order; a memo hit must still emit rows in ascending
// identifier order, with each vertex's own rank.
func TestAnalyticsMemoDeltaOrder(t *testing.T) {
	e := ladderEngine(t, 120, 2)
	mustScript(t, e, `INSERT INTO V VALUES (-5, 'first');
		INSERT INTO E VALUES (100000, -5, 0, 1.5), (100001, 7, -5, 1.5)`)
	g, err := e.GraphTopology("Ladder")
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, err := graph.RefPageRank(nil, g, 0.85, 20, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	g.Vertices(func(v *graph.Vertex) bool {
		fmt.Fprintf(&sb, "%d|%s\n", v.ID, types.NewFloat(ranks[v.ID]))
		return true
	})
	hits := metricValue(e, "analytics.memo_hits")
	for run := 1; run <= 2; run++ {
		if got := rowsOf(t, e, `SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`); got != sb.String() {
			t.Fatalf("run %d over a delta version differs from the reference", run)
		}
	}
	if metricValue(e, "analytics.memo_hits") != hits+1 {
		t.Fatal("the second PAGERANK over the delta version was not a memo hit")
	}
}

// TestPreparedPageRankHitAllocs pins the cost of a memoized PAGERANK
// aggregate: a prepared MAX/COUNT over a 20k-vertex view folds the
// memoized ranks inside the scan, so an execution allocates only the
// plan's fixed cost, nothing per row: ≤ 60 allocations and ≤ 64 KiB (11
// and ≈ 1 KB when the fold landed; the row path took ≈ 95 and 2.59 MB).
func TestPreparedPageRankHitAllocs(t *testing.T) {
	const nv, ne = 20_000, 60_000
	e := New(Options{Workers: 1})
	mustScript(t, e, `CREATE TABLE V (vid BIGINT PRIMARY KEY);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT)`)
	bulkLoad(t, e, "V", genRows(nv, func(i int) types.Row { return types.Row{types.NewInt(int64(i))} }))
	bulkLoad(t, e, "E", genRows(ne, func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % nv)), types.NewInt(int64((i*7919 + 13) % nv))}
	}))
	mustExec(t, e, `CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V EDGES(ID = eid, FROM = src, TO = dst) FROM E`)
	p, err := e.Prepare(`SELECT MAX(PR.rank), COUNT(*) FROM G.PAGERANK(0.85, 20) PR`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r, err := p.Query()
		if err != nil || len(r.Rows) != 1 || r.Rows[0][1].I != nv {
			t.Fatalf("PAGERANK aggregate: %v, %v", r, err)
		}
	}
	run() // the miss that fills the memo
	hits := metricValue(e, "analytics.memo_hits")
	if n := testing.AllocsPerRun(20, run); n > 60 {
		t.Errorf("a prepared PAGERANK memo hit allocates %.0f times per execution, want <= 60", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 64<<10 {
		t.Errorf("a prepared PAGERANK memo hit allocates %d bytes per execution, want <= 64 KiB", b)
	}
	if metricValue(e, "analytics.memo_hits") == hits {
		t.Fatal("the prepared executions were not memo hits")
	}
}

// genRows returns row(0) … row(n-1).
func genRows(n int, row func(i int) types.Row) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = row(i)
	}
	return rows
}

// TestAnalyticsMemoConcurrentReaders: readers racing on one version's memo
// slots — misses that may all compute and store, and hits that load what
// another goroutine stored — each see the fresh engine's rows.
func TestAnalyticsMemoConcurrentReaders(t *testing.T) {
	queries := []string{
		`SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`,
		`SELECT * FROM Ladder.PAGERANK(0.5, 10) PR`,
		`SELECT * FROM Ladder.CONNECTED_COMPONENTS() CC`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = rowsOf(t, ladderEngine(t, 120, 2), q)
	}
	e := ladderEngine(t, 120, 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				qi := (g + i) % len(queries)
				r, err := e.Execute(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if lines(r) != want[qi] {
					t.Errorf("goroutine %d: %s differs from a fresh engine's", g, queries[qi])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAnalyticsMemoSkipsCancelledRun: a PAGERANK kernel stopped by its
// context memoizes nothing, so the next call runs the kernel and returns
// every row. The statement runs below the engine's own cancellation
// check, so the kernel itself sees the cancelled context.
func TestAnalyticsMemoSkipsCancelledRun(t *testing.T) {
	const q = `SELECT * FROM Ladder.PAGERANK(0.85, 20) PR`
	e := ladderEngine(t, 120, 2)
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := e.pin()
	_, err = selectOn(ctx, e, st, stmt.(*sql.Select), nil)
	e.unpin(st)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	hits := metricValue(e, "analytics.memo_hits")
	if got, want := rowsOf(t, e, q), rowsOf(t, ladderEngine(t, 120, 2), q); got != want {
		t.Fatal("PAGERANK after a cancelled run differs from a fresh engine's")
	}
	if metricValue(e, "analytics.memo_hits") != hits {
		t.Fatal("PAGERANK after a cancelled run was a memo hit")
	}
}
