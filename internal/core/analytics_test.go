package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// TestAnalyticsDegreeCentrality pins the relational surface of the degree
// TVF on the paper's Figure 3 social network (undirected, so out = in =
// total degree).
func TestAnalyticsDegreeCentrality(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT * FROM SocialNetwork.DEGREE_CENTRALITY()`)
	if !reflect.DeepEqual(r.Columns, []string{"ID", "out_degree", "in_degree"}) {
		t.Fatalf("columns: %v", r.Columns)
	}
	want := map[int64]int64{1: 2, 2: 2, 3: 3, 4: 2, 5: 1}
	if len(r.Rows) != len(want) {
		t.Fatalf("rows: %v", render(r))
	}
	prev := int64(-1)
	for _, row := range r.Rows {
		id, out, in := row[0].I, row[1].I, row[2].I
		if id <= prev {
			t.Fatalf("rows not in ascending ID order: %v", render(r))
		}
		prev = id
		if out != want[id] || in != want[id] {
			t.Errorf("vertex %d: degrees (%d,%d), want %d", id, out, in, want[id])
		}
	}
}

func TestAnalyticsComponentsAndFilter(t *testing.T) {
	e := socialEngine(t)
	// Figure 3 is one connected component labeled by its smallest vertex.
	r := mustExec(t, e, `SELECT * FROM SocialNetwork.CONNECTED_COMPONENTS() CC WHERE CC.component = 1`)
	if len(r.Rows) != 5 {
		t.Fatalf("connected graph: %v", render(r))
	}
	r = mustExec(t, e, `SELECT * FROM SocialNetwork.CONNECTED_COMPONENTS() CC WHERE CC.component = 2`)
	if len(r.Rows) != 0 {
		t.Fatalf("no component is labeled 2: %v", render(r))
	}
	// The single-alias predicate is pushed into the scan.
	p := planText(mustExec(t, e,
		`EXPLAIN SELECT * FROM SocialNetwork.CONNECTED_COMPONENTS() CC WHERE CC.component = 1`))
	if !strings.Contains(p, "AnalyticsScan SocialNetwork.CONNECTED_COMPONENTS() filter=") {
		t.Errorf("filter not pushed into AnalyticsScan:\n%s", p)
	}
}

// TestAnalyticsJoinWithTable is the tentpole acceptance query: analytics
// results are ordinary relations that join against table attributes.
func TestAnalyticsJoinWithTable(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT U.lname, PR.rank FROM Users U, SocialNetwork.PAGERANK(0.85, 20) PR
		WHERE U.uid = PR.ID ORDER BY PR.rank DESC, U.lname`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows: %v", render(r))
	}
	// Parker (uid 3) has the highest degree, hence the highest rank.
	if r.Rows[0][0].S != "Parker" {
		t.Fatalf("top-ranked user: %v", render(r))
	}
	sum := 0.0
	for _, row := range r.Rows {
		sum += row[1].F
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank mass = %v, want 1", sum)
	}
}

func TestAnalyticsLabelPropagation(t *testing.T) {
	e := socialEngine(t)
	r := mustExec(t, e, `SELECT * FROM SocialNetwork.LABEL_PROPAGATION(10) LP ORDER BY LP.ID`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows: %v", render(r))
	}
	labels := map[int64]bool{}
	for _, row := range r.Rows {
		labels[row[1].I] = true
	}
	if len(labels) < 1 || len(labels) > 5 {
		t.Fatalf("labels: %v", render(r))
	}
}

func TestAnalyticsArgumentValidation(t *testing.T) {
	e := socialEngine(t)
	for _, q := range []string{
		`SELECT * FROM SocialNetwork.PAGERANK(0.85, 20, 3)`, // too many args
		`SELECT * FROM SocialNetwork.DEGREE_CENTRALITY(1)`,  // takes none
		`SELECT * FROM SocialNetwork.PAGERANK(1.5)`,         // damping out of range
		`SELECT * FROM SocialNetwork.PAGERANK(0.85, 0)`,     // iterations < 1
		`SELECT * FROM SocialNetwork.LABEL_PROPAGATION(0)`,  // maxIters < 1
		`SELECT * FROM SocialNetwork.BETWEENNESS()`,         // unknown function
		`SELECT * FROM SocialNetwork.PAGERANK(U.uid)`,       // non-constant arg
	} {
		if _, err := e.Execute(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
}

// TestAnalyticsMatchReference checks a pooled engine (workers = 2, parallel
// kernels and multi-source scans) against the single-threaded pointer
// references bit-for-bit, TVFs and path scans alike.
func TestAnalyticsMatchReference(t *testing.T) {
	checkAgainstReference(t, ladderEngine(t, 200, 2), "Ladder", [][2]int64{{0, 199}, {7, 150}})
}

func TestAnalyticsExplainAnalyzeAndMetrics(t *testing.T) {
	e := ladderEngine(t, 200, 2)
	runs0 := metricValue(e, "analytics.runs")
	p := planText(mustExec(t, e, `EXPLAIN ANALYZE SELECT * FROM Ladder.CONNECTED_COMPONENTS() CC`))
	if !strings.Contains(p, "Analytics[Ladder.CONNECTED_COMPONENTS]: runs=1 iters=") {
		t.Errorf("EXPLAIN ANALYZE missing analytics actuals:\n%s", p)
	}
	if !strings.Contains(p, "CSR[Ladder]:") {
		t.Errorf("EXPLAIN ANALYZE missing CSR cache line:\n%s", p)
	}
	mustExec(t, e, `SELECT * FROM Ladder.PAGERANK() PR LIMIT 1`)
	if runs := metricValue(e, "analytics.runs"); runs < runs0+2 {
		t.Errorf("analytics.runs = %d, want >= %d", runs, runs0+2)
	}
	if iters := metricValue(e, "analytics.iterations"); iters <= 0 {
		t.Errorf("analytics.iterations = %d, want > 0", iters)
	}
	// A prepared TVF query counts one run per execution of its cached plan.
	pr, err := e.Prepare(`SELECT * FROM Ladder.DEGREE_CENTRALITY() D LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	runs1 := metricValue(e, "analytics.runs")
	for i := 0; i < 3; i++ {
		if _, err := pr.Query(); err != nil {
			t.Fatal(err)
		}
	}
	if got := metricValue(e, "analytics.runs") - runs1; got != 3 {
		t.Errorf("analytics.runs delta over 3 prepared executions = %d, want 3", got)
	}
}

// TestAnalyticsCancellation cancels each iterative function once its
// kernel has started: the kernel polls the signal and stops.
func TestAnalyticsCancellation(t *testing.T) {
	e := ladderEngine(t, 300, 2)
	for _, q := range []string{
		`SELECT * FROM Ladder.PAGERANK(0.85, 50) PR`,
		`SELECT * FROM Ladder.CONNECTED_COMPONENTS() CC`,
		`SELECT * FROM Ladder.LABEL_PROPAGATION(50) LP`,
	} {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		// runSelect skips the statement path's entry check, so the
		// cancellation reaches the kernel, which must stop before its
		// first iteration.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		runs, iters := metricValue(e, "analytics.runs"), metricValue(e, "analytics.iterations")
		st := e.pin()
		_, err = selectOn(ctx, e, st, stmt.(*sql.Select), nil)
		e.unpin(st)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", q, err)
		}
		if got := metricValue(e, "analytics.runs") - runs; got != 1 {
			t.Fatalf("%s: %d kernel runs, want 1", q, got)
		}
		if got := metricValue(e, "analytics.iterations") - iters; got != 0 {
			t.Fatalf("%s: the cancelled kernel ran %d iterations, want 0", q, got)
		}
	}
	// The engine must stay usable afterwards.
	if r := mustExec(t, e, `SELECT * FROM Ladder.DEGREE_CENTRALITY() D LIMIT 1`); len(r.Rows) != 1 {
		t.Fatalf("engine unusable after cancellation")
	}
}

// TestPageRankRejectsNaNDamping: a prepared PAGERANK given a NaN damping
// fails the range check like any other value outside [0, 1), runs no
// kernel, and leaves the memoized PAGERANK in place.
func TestPageRankRejectsNaNDamping(t *testing.T) {
	e := ladderEngine(t, 20, 1)
	const q = `SELECT * FROM Ladder.PAGERANK(0.85, 5) PR`
	want := rowsOf(t, e, q)
	p, err := e.Prepare(`SELECT * FROM Ladder.PAGERANK(?, 5) PR`)
	if err != nil {
		t.Fatal(err)
	}
	runs := metricValue(e, "analytics.runs")
	r, err := p.Query(types.NewFloat(math.NaN()))
	if err == nil || !strings.Contains(err.Error(), "PAGERANK damping must be in [0, 1), got NaN") {
		t.Fatalf("PAGERANK(NaN, 5): %v, err = %v, want the damping range error", r, err)
	}
	if got := metricValue(e, "analytics.runs"); got != runs {
		t.Fatalf("PAGERANK(NaN, 5) ran %d kernels, want 0", got-runs)
	}
	hits := metricValue(e, "analytics.memo_hits")
	if rowsOf(t, e, q) != want || metricValue(e, "analytics.memo_hits") != hits+1 {
		t.Fatal("PAGERANK(0.85, 5) after the NaN call was not its memo hit")
	}
}
