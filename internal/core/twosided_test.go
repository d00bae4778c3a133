package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// TestTwoSidedPlanShapes: the planner searches a k=1 SHORTESTPATH from
// both ends only when both endpoints are bound and nothing else reads the
// path on the way, and EXPLAIN says which kernel it chose.
func TestTwoSidedPlanShapes(t *testing.T) {
	e := weightEngine(t, 25)
	const sp = `FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0`
	for _, tc := range []struct {
		q     string
		sides int
	}{
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20`, 2},
		{`SELECT SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20`, 2},
		{`SELECT TOP 1 PS.PathString ` + sp + ` AND PS.EndVertex.Id = 20 AND PS.Length >= 1`, 2},
		{`SELECT COUNT(*) FROM V U, G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = U.vid AND PS.EndVertex.Id = 20`, 2},
		{`SELECT TOP 2 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20`, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20 AND PS.Length <= 30`, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20 AND PS.Length >= 2`, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20 AND PS.Edges[0..*].w < 5`, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20 AND SUM(PS.Edges.w) < 30`, 1},
		{`SELECT TOP 1 SUM(PS.Edges.w) ` + sp + ` AND PS.EndVertex.Id = 20 AND PS.PathString <> '0'`, 1},
	} {
		plan, err := e.Explain(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if want := fmt.Sprintf("sides=%d", tc.sides); !strings.Contains(plan, want) {
			t.Errorf("%s: want %s in\n%s", tc.q, want, plan)
		}
	}
}

// TestTwoSidedReachPlanShapes: the planner searches a visit-once BFScan
// from both ends only when both endpoints are bound and nothing else
// reads the path on the way, with or without LIMIT; EXPLAIN ends a
// two-sided BFScan line with sides=2 and leaves a one-sided one without a
// sides token.
func TestTwoSidedReachPlanShapes(t *testing.T) {
	e := weightEngine(t, 25)
	const ends = `WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20`
	for _, tc := range []struct {
		q   string
		two bool
	}{
		{`SELECT PS.PathString FROM G.Paths PS ` + ends + ` LIMIT 1`, true},
		{`SELECT PS.PathString FROM G.Paths PS HINT(BFS) ` + ends, true},
		{`SELECT COUNT(*) FROM G.Paths PS ` + ends + ` AND PS.Length >= 0`, true},
		{`SELECT COUNT(*) FROM V U, G.Paths PS WHERE PS.StartVertex.Id = U.vid AND PS.EndVertex.Id = 20`, true},
		{`SELECT PS.PathString FROM G.Paths PS HINT(DFS) ` + ends, false},
		{`SELECT PS.PathString FROM G.Paths PS HINT(BFS, ALLPATHS) ` + ends, false},
		{`SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 0 LIMIT 1`, false},
		{`SELECT PS.PathString FROM G.Paths PS ` + ends + ` AND PS.Length <= 30 LIMIT 1`, false},
		{`SELECT PS.PathString FROM G.Paths PS ` + ends + ` AND PS.Length >= 2 LIMIT 1`, false},
		{`SELECT PS.PathString FROM G.Paths PS ` + ends + ` AND PS.Edges[0..*].w < 5 LIMIT 1`, false},
		{`SELECT PS.PathString FROM G.Paths PS ` + ends + ` AND PS.PathString <> '0' LIMIT 1`, false},
	} {
		plan, err := e.Explain(tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !strings.Contains(plan, "PathScan[") || strings.Contains(plan, "sides=2") != tc.two ||
			strings.Contains(plan, "sides=1") {
			t.Errorf("%s: want two-sided %v in\n%s", tc.q, tc.two, plan)
		}
	}
}

// pathScanActuals matches a PathScan's kernel actuals on its EXPLAIN
// ANALYZE line.
var pathScanActuals = regexp.MustCompile(`^\s*PathScan\[.* probes=(\d+) two_sided=(\d+)\)$`)

// analyzeKernels runs EXPLAIN ANALYZE q and returns its one PathScan's
// probes and two-sided probes.
func analyzeKernels(t *testing.T, e *Engine, q string) (probes, twoSided int) {
	t.Helper()
	var lines []string
	for _, row := range render(mustExec(t, e, "EXPLAIN ANALYZE "+q)) {
		lines = append(lines, row[0])
		if m := pathScanActuals.FindStringSubmatch(row[0]); m != nil {
			probes, _ = strconv.Atoi(m[1])
			twoSided, _ = strconv.Atoi(m[2])
			return probes, twoSided
		}
	}
	t.Fatalf("EXPLAIN ANALYZE %s: no PathScan actuals:\n%s", q, strings.Join(lines, "\n"))
	return 0, 0
}

// TestExplainAnalyzeNamesKernel: EXPLAIN ANALYZE says how many of a
// PathScan's probes ran a two-sided kernel. A sides=2 SPScan on a binding
// with a bad weight runs them all one-sided, and again two-sided once the
// weight is mended; the reach plan runs every probe two-sided, one per
// outer row when a join drives it, and its one-sided form none.
func TestExplainAnalyzeNamesKernel(t *testing.T) {
	e := weightEngine(t, 25)
	const sp = `SELECT TOP 1 SUM(PS.Edges.w) FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 5`
	mustExec(t, e, `UPDATE E SET w = -1 WHERE eid = 46`) // off every path the probe reaches
	if plan, err := e.Explain(sp); err != nil || !strings.Contains(plan, "sides=2") {
		t.Fatalf("%s is not planned two-sided (%v):\n%s", sp, err, plan)
	}
	for _, tc := range []struct {
		label, q    string
		probes, two int
	}{
		{"bad weight", sp, 1, 0},
		{"mended weight", sp, 1, 1},
		{"reach", `SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20 LIMIT 1`, 1, 1},
		{"reach join", `SELECT COUNT(*) FROM V U, G.Paths PS WHERE PS.StartVertex.Id = U.vid AND PS.EndVertex.Id = 20`, 25, 25},
		{"one-sided reach", `SELECT PS.PathString FROM G.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 20 AND PS.Length <= 30 LIMIT 1`, 1, 0},
	} {
		if tc.label == "mended weight" {
			mustExec(t, e, `UPDATE E SET w = 1.5 WHERE eid = 46`)
		}
		if probes, two := analyzeKernels(t, e, tc.q); probes != tc.probes || two != tc.two {
			t.Errorf("%s: probes=%d two_sided=%d, want %d and %d", tc.label, probes, two, tc.probes, tc.two)
		}
	}
}

// TestTwoSidedMatchesOneSided: on the weight ladder, for a bad weight —
// negative, NaN, NULL — on any one edge, and for none, the two-sided TOP 1
// answers exactly as its one-sided form (a length bound no path reaches):
// the same rows and error text where a weight is bad, the same cost where
// none is.
func TestTwoSidedMatchesOneSided(t *testing.T) {
	const (
		two = `SELECT TOP 1 SUM(PS.Edges.w) FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`
		one = two + ` AND PS.Length <= 100`
	)
	e := weightEngine(t, 25)
	set, err := e.PrepareDML(`UPDATE E SET w = ? WHERE eid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(q string) (string, error) {
		res, err := e.Execute(q)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(render(res)), nil
	}
	compare := func(label string, src, dst int) {
		t.Helper()
		got, gotErr := run(fmt.Sprintf(two, src, dst))
		want, wantErr := run(fmt.Sprintf(one, src, dst))
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %d→%d: two-sided %q %v, one-sided %q %v", label, src, dst, got, gotErr, want, wantErr)
		}
	}
	for _, pair := range [][2]int{{0, 20}, {3, 24}, {5, 6}, {20, 0}, {7, 7}} {
		compare("clean", pair[0], pair[1])
	}
	// The ladder has 47 edges; every one carries each bad weight in turn,
	// on or off the probes' paths.
	bad := []types.Value{types.NewFloat(-1), types.NewFloat(math.NaN()), types.Null()}
	errs := 0
	for eid := 0; eid < 47; eid++ {
		orig := mustExec(t, e, fmt.Sprintf(`SELECT w FROM E WHERE eid = %d`, eid)).Rows[0][0]
		for i, w := range bad {
			if _, err := set.Exec(w, types.NewInt(int64(eid))); err != nil {
				t.Fatal(err)
			}
			src := (eid + i) % 5
			if _, err := run(fmt.Sprintf(one, src, 20)); err != nil {
				errs++
			}
			compare(fmt.Sprintf("edge %d weight %v", eid, w), src, 20)
		}
		if _, err := set.Exec(orig, types.NewInt(int64(eid))); err != nil {
			t.Fatal(err)
		}
	}
	if errs == 0 {
		t.Fatal("no bad weight raised an error: the test checks nothing")
	}
}

// TestWeightVerdictFollowsWrites: after every statement of a random DML
// history — edge inserts, weight updates, rewires, edge deletes, vertex
// deletes that cascade, and statements that fail part-way and roll back —
// and after a snapshot round-trip, the published binding vouches for an
// edge attribute exactly when a scan of its own edges finds no weight
// SPScan would refuse; so does a binding pinned before the history.
func TestWeightVerdictFollowsWrites(t *testing.T) {
	e := weightEngine(t, 25)
	seen := map[string]map[bool]bool{"w": {}, "tag": {}, "FROM": {}}
	checkAt := func(e *Engine, st *dbState, step string) {
		t.Helper()
		gv := mustView(t, e, "G")
		at := st.ats[gv]
		for name := range seen {
			ref, err := gv.ResolveAttr(expr.ElemEdges, name)
			if err != nil {
				t.Fatal(err)
			}
			want := true
			at.Topo.Edges(func(ge *graph.Edge) bool {
				row, ok := at.E.Get(storage.RowID(ge.Tuple))
				want = ok && row[ref.Pos].IsNumeric() && row[ref.Pos].AsFloat() >= 0
				return want
			})
			if got := at.WeightsVouched(ref); got != want {
				t.Fatalf("after %s: %s vouched %v, its edges say %v", step, name, got, want)
			}
			seen[name][want] = true
		}
	}
	check := func(e *Engine, step string) {
		t.Helper()
		st := e.pin()
		defer e.unpin(st)
		checkAt(e, st, step)
	}
	mustScript(t, e, `UPDATE E SET w = -1 WHERE eid = 3`)
	old := e.pin()
	defer e.unpin(old)
	mustScript(t, e, `UPDATE E SET w = 1 WHERE eid = 3`)
	check(e, "CREATE")
	weights := []string{"1.5", "0", "-1", "NULL", "2"}
	rng := rand.New(rand.NewSource(1))
	next := 100
	outcomes := map[bool]int{}
	for i := 0; i < 400; i++ {
		w := weights[rng.Intn(len(weights))]
		eid, v := rng.Intn(next), rng.Intn(25)
		var q string
		switch rng.Intn(9) {
		case 0:
			q = fmt.Sprintf(`INSERT INTO E VALUES (%d, %d, %d, %s, 't')`, next, v, rng.Intn(25), w)
			next++
		case 1:
			q = fmt.Sprintf(`UPDATE E SET w = %s WHERE eid = %d`, w, eid)
		case 2:
			q = fmt.Sprintf(`UPDATE E SET w = %s, dst = %d WHERE eid = %d`, w, v, eid)
		case 3:
			q = fmt.Sprintf(`DELETE FROM E WHERE eid = %d`, eid)
		case 4:
			q = fmt.Sprintf(`DELETE FROM V WHERE vid = %d; INSERT INTO V VALUES (%d)`, v, v)
		case 5: // the second row's endpoint is no vertex: the first row rolls back
			q = fmt.Sprintf(`INSERT INTO E VALUES (%d, 0, 1, -1, 't'), (%d, 0, 999, 1, 't')`, next, next+1)
		case 6: // the rewire is refused: the weight update rolls back
			q = fmt.Sprintf(`UPDATE E SET w = NULL, dst = 999 WHERE eid = %d`, eid)
		case 7:
			q = `UPDATE E SET w = 1 WHERE w IS NULL OR w < 0`
		case 8:
			q = fmt.Sprintf(`UPDATE E SET w = -1 WHERE src = %d`, v)
		}
		for _, stmt := range strings.Split(q, ";") {
			_, err := e.Execute(stmt)
			outcomes[err == nil]++
			check(e, stmt)
		}
	}
	var snap bytes.Buffer
	if err := e.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := New(Options{})
	if err := restored.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	check(restored, "a snapshot round-trip")
	checkAt(e, old, "the history, pinned before it")
	if !seen["w"][true] || !seen["w"][false] || !seen["tag"][false] || !seen["FROM"][true] ||
		outcomes[true] < 100 || outcomes[false] < 20 {
		t.Fatalf("verdicts seen %v, statements applied/failed %d/%d: the history checks too little",
			seen, outcomes[true], outcomes[false])
	}
}

// TestTwoSidedColumnMatchesReader: the two-sided TOP 1 answers the same
// path, not only the same cost, before its binding earns the weight
// column (weights through the reader) and after (through the column), on
// a version without a delta and on one with, so the choice among
// equal-cost paths is fixed per statement and version.
func TestTwoSidedColumnMatchesReader(t *testing.T) {
	const q = `SELECT TOP 1 SUM(PS.Edges.w), PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`
	const delta = `DELETE FROM E WHERE eid IN (2, 9, 20);
		INSERT INTO E VALUES (100, 1, 7, 1.5, 'd'), (101, 7, 15, 1.5, 'd'), (102, 15, 20, 9.5, 'd'), (103, 3, 5, 1.5, 'd');
		UPDATE E SET w = 0.5 WHERE eid = 101`
	for _, dml := range []string{"", delta} {
		for _, pair := range [][2]int{{0, 20}, {1, 23}, {3, 24}, {2, 11}, {0, 5}} {
			e := weightEngine(t, 25)
			if dml != "" {
				mustScript(t, e, dml)
			}
			gv := mustView(t, e, "G")
			if (e.state.Load().ats[gv].Topo.DeltaLen() > 0) != (dml != "") {
				t.Fatalf("delta %q left the version's delta at %d", dml, e.state.Load().ats[gv].Topo.DeltaLen())
			}
			probe := fmt.Sprintf(q, pair[0], pair[1])
			if plan, err := e.Explain(probe); err != nil || !strings.Contains(plan, "sides=2") {
				t.Fatalf("%s: want sides=2, got %v\n%s", probe, err, plan)
			}
			before := fmt.Sprint(render(mustExec(t, e, probe)))
			if gv.WeightColBuilds() != 0 {
				t.Fatalf("%s: the first run laid out a weight column", probe)
			}
			for i := 0; gv.WeightColBuilds() == 0; i++ {
				if i == 1000 {
					t.Fatalf("%s: the binding never earned its weight column", probe)
				}
				mustExec(t, e, probe)
			}
			if after := fmt.Sprint(render(mustExec(t, e, probe))); after != before || before == "[]" {
				t.Fatalf("%s (delta %v): reader %s, column %s", probe, dml != "", before, after)
			}
		}
	}
}
