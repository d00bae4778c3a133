package core

import (
	"bytes"
	"errors"
	"log"
	"strings"
	"testing"
	"time"

	"grfusion/internal/types"
)

// planLines flattens a one-column plan result into a single string.
func planLines(t *testing.T, r *Result) string {
	t.Helper()
	var sb strings.Builder
	for _, row := range r.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// metricValue reads one snapshot entry by name (-1 when absent).
func metricValue(e *Engine, name string) int64 {
	for _, kv := range e.MetricsSnapshot() {
		if kv.Name == name {
			return kv.Value
		}
	}
	return -1
}

// TestMetricsAccuracy is the ISSUE's counter-delta test: after N
// statements of each kind, the by-kind counters moved by exactly N.
func TestMetricsAccuracy(t *testing.T) {
	e := socialEngine(t)
	base := map[string]int64{}
	for _, k := range []string{"statements.select", "statements.insert", "statements.update", "statements.delete", "statements.explain", "statements.show", "statements.set", "errors.other", "latency.count"} {
		base[k] = metricValue(e, k)
	}

	for i := 0; i < 5; i++ {
		mustExec(t, e, `SELECT COUNT(*) FROM Users`)
	}
	mustExec(t, e, `INSERT INTO Users VALUES (100, 'A', '2000', 'Lawyer')`)
	mustExec(t, e, `INSERT INTO Users VALUES (101, 'B', '2000', 'Lawyer')`)
	mustExec(t, e, `EXPLAIN SELECT * FROM Users`)
	mustExec(t, e, `SHOW TABLES`)
	mustExec(t, e, `SET QUERY_TIMEOUT = 0`)
	if _, err := e.Execute(`SELECT nosuch FROM Users`); err == nil {
		t.Fatal("bad query succeeded")
	}

	// Prepared executions are counted exactly like ad hoc ones.
	sel, err := e.Prepare(`SELECT COUNT(*) FROM Users WHERE uid = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sel.Query(types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	prepared := func(q string, wantErr bool, params ...types.Value) {
		t.Helper()
		p, err := e.PrepareDML(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Exec(params...); (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error = %v", q, err, wantErr)
		}
	}
	for i := int64(102); i < 105; i++ {
		prepared(`INSERT INTO Users VALUES (?, 'C', '2000', 'Lawyer')`, false, types.NewInt(i))
	}
	prepared(`INSERT INTO Users VALUES (?, 'C', '2000', 'Lawyer')`, true, types.NewInt(102)) // duplicate key
	prepared(`UPDATE Users SET job = ? WHERE uid = 102`, false, types.NewString("Judge"))
	prepared(`DELETE FROM Users WHERE uid = ?`, false, types.NewInt(103))

	want := map[string]int64{
		"statements.select":  8, // 5 successes + the failed SELECT (counted by kind regardless of outcome) + 2 prepared
		"statements.insert":  6, // 2 ad hoc + 3 prepared + the failed prepared one
		"statements.update":  1,
		"statements.delete":  1,
		"statements.explain": 1,
		"statements.show":    1,
		"statements.set":     1,
		"errors.other":       2,
		"latency.count":      19, // every statement above, including the failed ones
	}
	for name, delta := range want {
		if got := metricValue(e, name) - base[name]; got != delta {
			t.Errorf("%s delta = %d, want %d", name, got, delta)
		}
	}
}

func TestShowMetricsStatement(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `SELECT COUNT(*) FROM Users`)
	r := mustExec(t, e, `SHOW METRICS`)
	if len(r.Columns) != 2 || r.Columns[0] != "name" || r.Columns[1] != "value" {
		t.Fatalf("columns: %v", r.Columns)
	}
	found := map[string]int64{}
	for _, row := range r.Rows {
		found[row[0].S] = row[1].I
	}
	if found["statements.select"] < 1 {
		t.Errorf("statements.select = %d, want >= 1", found["statements.select"])
	}
	if v, ok := found["graphview.SocialNetwork.vertices"]; !ok || v != 5 {
		t.Errorf("graphview.SocialNetwork.vertices = %d (present=%v), want 5", v, ok)
	}
	if v, ok := found["graphview.SocialNetwork.stats_age_ns"]; !ok || v != -1 {
		t.Errorf("stats_age_ns = %d (present=%v), want -1 before any refresh", v, ok)
	}
	e.RefreshStatistics()
	if v := metricValue(e, "graphview.SocialNetwork.stats_age_ns"); v < 0 {
		t.Errorf("stats_age_ns = %d after refresh, want >= 0", v)
	}
	if v := metricValue(e, "graph.stats_refreshes"); v != 1 {
		t.Errorf("graph.stats_refreshes = %d, want 1", v)
	}
}

// TestExplainAnalyzePathOperators is the golden coverage the ISSUE asks
// for: EXPLAIN ANALYZE over each physical path operator renders actual
// per-operator rows/time plus the correctly-bounded pushed filter.
func TestExplainAnalyzePathOperators(t *testing.T) {
	social := socialEngine(t)
	road := New(Options{})
	mustScript(t, road, `
		CREATE TABLE Nodes (nid BIGINT PRIMARY KEY, addr VARCHAR);
		CREATE TABLE Roads (rid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, dist DOUBLE);
		INSERT INTO Nodes VALUES (1,'Address 1'),(2,'mid'),(3,'mid2'),(4,'Address 2');
		INSERT INTO Roads VALUES
			(1, 1, 2, 1.0), (2, 2, 4, 1.0),
			(3, 1, 3, 1.5), (4, 3, 4, 1.5),
			(5, 1, 4, 10.0);
		CREATE UNDIRECTED GRAPH VIEW RoadNetwork
			VERTEXES(ID = nid, Address = addr) FROM Nodes
			EDGES(ID = rid, FROM = a, TO = b, Distance = dist) FROM Roads;
	`)

	cases := []struct {
		name  string
		eng   *Engine
		query string
		want  []string
	}{
		{
			name: "DFScan",
			eng:  social,
			query: `EXPLAIN ANALYZE SELECT COUNT(*) FROM SocialNetwork.Paths PS HINT(DFS)
				WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2 AND PS.Edges[0..1].sdate > '2000'`,
			want: []string{"PathScan[DFScan]", "Edges[0..1].sdate > '2000'", "pushed=1"},
		},
		{
			name: "BFScan",
			eng:  social,
			query: `EXPLAIN ANALYZE SELECT COUNT(*) FROM SocialNetwork.Paths PS HINT(BFS)
				WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2 AND PS.Edges[0..1].sdate > '2000'`,
			want: []string{"PathScan[BFScan]", "Edges[0..1].sdate > '2000'", "pushed=1"},
		},
		{
			name: "SPScan",
			eng:  road,
			query: `EXPLAIN ANALYZE SELECT TOP 1 PS.PathString FROM RoadNetwork.Paths PS HINT(SHORTESTPATH(Distance))
				WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 AND PS.Edges[0..1].Distance >= 1`,
			want: []string{"PathScan[SPScan]", "Edges[0..1].Distance >= 1", "pushed=1", "weight=Distance"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mustExec(t, tc.eng, tc.query)
			text := planLines(t, r)
			for _, w := range append(tc.want,
				"actual rows=", "nexts=", "time=", "Execution: rows=", "Counters: edges_traversed=") {
				if !strings.Contains(text, w) {
					t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", w, text)
				}
			}
			// Actual traversal happened: the counter line must be nonzero.
			if strings.Contains(text, "edges_traversed=0 ") || strings.HasSuffix(text, "edges_traversed=0\n") {
				t.Errorf("EXPLAIN ANALYZE did not execute the traversal:\n%s", text)
			}
		})
	}
}

func TestExplainAnalyzeStatsLine(t *testing.T) {
	e := socialEngine(t)
	q := `EXPLAIN ANALYZE SELECT COUNT(*) FROM SocialNetwork.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2`
	text := planLines(t, mustExec(t, e, q))
	if !strings.Contains(text, "Stats[SocialNetwork]: none published") {
		t.Errorf("want no-stats line before refresh:\n%s", text)
	}
	e.RefreshStatistics()
	text = planLines(t, mustExec(t, e, q))
	if !strings.Contains(text, "Stats[SocialNetwork]: avg_fanout=") || !strings.Contains(text, "(fresh)") {
		t.Errorf("want fresh stats line after refresh:\n%s", text)
	}
}

// TestRebuildInvalidatesStats is the §6.3 staleness regression at the
// engine level: RebuildGraphView must withdraw published statistics.
func TestRebuildInvalidatesStats(t *testing.T) {
	e := socialEngine(t)
	e.RefreshStatistics()
	gv, ok := e.Catalog().GraphView("SocialNetwork")
	if !ok {
		t.Fatal("no graph view")
	}
	if gv.Stats() == nil {
		t.Fatal("refresh did not publish statistics")
	}
	if _, err := e.RebuildGraphView("SocialNetwork"); err != nil {
		t.Fatal(err)
	}
	if gv.Stats() != nil {
		t.Fatal("RebuildGraphView left stale statistics published")
	}
	if v := metricValue(e, "graphview.SocialNetwork.stats_age_ns"); v != -1 {
		t.Errorf("stats_age_ns = %d after invalidation, want -1", v)
	}
}

func TestSlowQueryLog(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `SET SLOW_QUERY = 7`)
	if e.SlowQuery() != 7*time.Millisecond {
		t.Fatalf("SET SLOW_QUERY: threshold = %v", e.SlowQuery())
	}

	// Arm an impossibly low threshold so the next SELECT always logs.
	e.SetSlowQuery(time.Nanosecond)
	var buf bytes.Buffer
	old := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(old)
	before := metricValue(e, "slow_queries")
	mustExec(t, e, `SELECT COUNT(*) FROM Users WHERE job = 'Doctor'`)
	log.SetOutput(old)

	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "SELECT COUNT(*)") {
		t.Errorf("slow-query log missing statement text:\n%s", out)
	}
	if !strings.Contains(out, "top[1]") {
		t.Errorf("slow-query log missing top operators:\n%s", out)
	}
	if got := metricValue(e, "slow_queries") - before; got < 1 {
		t.Errorf("slow_queries delta = %d, want >= 1", got)
	}

	// A prepared write is logged too, under its statement text.
	upd, err := e.PrepareDML(`UPDATE Users SET job = ? WHERE uid = 1`)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	log.SetOutput(&buf)
	_, err = upd.Exec(types.NewString("Surgeon"))
	log.SetOutput(old)
	if err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "slow query") || !strings.Contains(out, "UPDATE Users SET job = ?") {
		t.Errorf("slow-query log missing the prepared write:\n%s", out)
	}
	if got := metricValue(e, "slow_queries") - before; got < 2 {
		t.Errorf("slow_queries delta = %d, want >= 2", got)
	}

	// Disarmed again: nothing further is logged.
	e.SetSlowQuery(0)
	buf.Reset()
	log.SetOutput(&buf)
	mustExec(t, e, `SELECT COUNT(*) FROM Users`)
	log.SetOutput(old)
	if strings.Contains(buf.String(), "slow query") {
		t.Errorf("slow-query log fired while disabled:\n%s", buf.String())
	}
}

func TestErrorSentinelCounters(t *testing.T) {
	e := socialEngine(t)
	mustExec(t, e, `SET QUERY_TIMEOUT = 1`)
	defer mustExec(t, e, `SET QUERY_TIMEOUT = 0`)
	before := metricValue(e, "errors.timeout")
	// A prepared write that outwaits the deadline behind a bulk load is
	// counted under the same sentinel as an ad hoc statement.
	ins, err := e.PrepareDML(`INSERT INTO Users VALUES (?, 'T', '2000', 'Lawyer')`)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := e.BeginBulk("Users", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { _, err := ins.Exec(types.NewInt(200)); queued <- err }()
	time.Sleep(20 * time.Millisecond)
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-queued; !errors.Is(err, ErrTimeout) {
		t.Fatalf("queued prepared insert: err = %v, want ErrTimeout", err)
	}
	if got := metricValue(e, "errors.timeout") - before; got != 1 {
		t.Errorf("errors.timeout delta after the prepared write = %d, want 1", got)
	}
	// An unbounded all-pairs traversal cannot finish in 1ms.
	deadline := time.Now().Add(5 * time.Second)
	var timedOut bool
	for time.Now().Before(deadline) {
		_, err := e.Execute(`SELECT COUNT(*) FROM SocialNetwork.Paths PS WHERE PS.Length <= 6`)
		if err != nil {
			timedOut = true
			break
		}
	}
	if !timedOut {
		t.Skip("query never exceeded the 1ms deadline on this machine")
	}
	if got := metricValue(e, "errors.timeout") - before; got < 2 {
		t.Errorf("errors.timeout delta = %d, want >= 2", got)
	}
}
