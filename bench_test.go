package grfusion

// bench_test.go wires every table and figure of the paper's evaluation
// (§7) into `go test -bench`. Each BenchmarkTableN/BenchmarkFigN runs the
// corresponding experiment from internal/bench at a reduced scale and
// logs the paper-style rows (run with -v to see them); cmd/grbench runs
// the same experiments at full scale with flags. The remaining benchmarks
// are micro-benchmarks of the engine's hot paths.

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"grfusion/internal/bench"
)

func benchCfg() bench.Config {
	return bench.Config{Scale: 0.3, Queries: 5, Seed: 42, MaxJoinHops: 4}
}

func runExperiment(b *testing.B, fn func(bench.Config) []bench.Row) {
	b.Helper()
	cfg := benchCfg()
	var rows []bench.Row
	for i := 0; i < b.N; i++ {
		rows = fn(cfg)
	}
	if len(rows) == 0 {
		b.Fatal("experiment produced no rows")
	}
	b.Log("\n" + bench.Format(rows))
}

func BenchmarkTable2_Datasets(b *testing.B)              { runExperiment(b, bench.Table2) }
func BenchmarkFig7_Reachability(b *testing.B)            { runExperiment(b, bench.Fig7) }
func BenchmarkFig8_ConstrainedReachability(b *testing.B) { runExperiment(b, bench.Fig8) }
func BenchmarkFig9_ShortestPaths(b *testing.B)           { runExperiment(b, bench.Fig9) }
func BenchmarkFig10_Triangles(b *testing.B)              { runExperiment(b, bench.Fig10) }
func BenchmarkTable3_ViewBuild(b *testing.B)             { runExperiment(b, bench.Table3) }
func BenchmarkFig11_Updates(b *testing.B)                { runExperiment(b, bench.Fig11) }
func BenchmarkAblation_DesignChoices(b *testing.B)       { runExperiment(b, bench.Ablation) }

// --- Micro-benchmarks -------------------------------------------------------

// socialDB builds a mid-sized social graph for operator micro-benchmarks.
func socialDB(b *testing.B, users, friendsPer int) *DB {
	b.Helper()
	db := Open(Config{})
	db.MustExec(`CREATE TABLE Users (uid BIGINT PRIMARY KEY, name VARCHAR, job VARCHAR)`)
	db.MustExec(`CREATE TABLE Friends (fid BIGINT PRIMARY KEY, a BIGINT, b BIGINT, since BIGINT)`)
	jobs := []string{"Lawyer", "Doctor", "Engineer"}
	batch := ""
	for i := 0; i < users; i++ {
		if batch == "" {
			batch = "INSERT INTO Users VALUES "
		} else {
			batch += ", "
		}
		batch += fmt.Sprintf("(%d, 'user%d', '%s')", i, i, jobs[i%3])
		if (i+1)%500 == 0 {
			db.MustExec(batch)
			batch = ""
		}
	}
	if batch != "" {
		db.MustExec(batch)
	}
	batch = ""
	fid := 0
	for i := 0; i < users; i++ {
		for j := 1; j <= friendsPer; j++ {
			if batch == "" {
				batch = "INSERT INTO Friends VALUES "
			} else {
				batch += ", "
			}
			batch += fmt.Sprintf("(%d, %d, %d, %d)", fid, i, (i+j*7)%users, 1990+fid%30)
			fid++
			if fid%500 == 0 {
				db.MustExec(batch)
				batch = ""
			}
		}
	}
	if batch != "" {
		db.MustExec(batch)
	}
	db.MustExec(`CREATE UNDIRECTED GRAPH VIEW Social
		VERTEXES(ID = uid, name = name, job = job) FROM Users
		EDGES(ID = fid, FROM = a, TO = b, since = since) FROM Friends`)
	return db
}

func BenchmarkVertexScan(b *testing.B) {
	db := socialDB(b, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM Social.Vertexes VS WHERE VS.job = 'Lawyer'`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathScanReachabilityBFS runs targeted reachability: ad hoc
// over the 2k-user social graph, and prepared over a 20k-vertex,
// 100k-edge view with the layered benchmark's reach template, an
// in-process profiling target for the two-sided BFScan.
func BenchmarkPathScanReachabilityBFS(b *testing.B) {
	b.Run("adhoc", func(b *testing.B) {
		db := socialDB(b, 2000, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT PS.PathString FROM Social.Paths PS HINT(BFS)
				WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d LIMIT 1`, i%2000, (i+997)%2000)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		const ne = 100_000
		db := topologyDB(b, ne)
		stmt, err := db.Prepare(`SELECT PS.PathString FROM G.Paths PS
			WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1`)
		if err != nil {
			b.Fatal(err)
		}
		nv := ne / 5
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(mix(3*ne+i)%nv, mix(4*ne+i)%nv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPathScanFriendsOfFriends(b *testing.B) {
	db := socialDB(b, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf(`SELECT COUNT(P) FROM Social.Paths P
			WHERE P.StartVertex.Id = %d AND P.Length = 2`, i%2000)
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPathSPScan runs TOP 1 weighted shortest paths: ad hoc
// over the 2k-user social graph, and prepared over a 20k-vertex,
// 100k-edge view — the layered benchmark's graph size, and an in-process
// profiling target for SPScan (-bench 'SPScan/prepared' -cpuprofile).
func BenchmarkShortestPathSPScan(b *testing.B) {
	b.Run("adhoc", func(b *testing.B) {
		db := socialDB(b, 2000, 3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf(`SELECT TOP 1 PS.PathString FROM Social.Paths PS HINT(SHORTESTPATH(since))
				WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`, i%2000, (i+1333)%2000)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		const ne = 100_000
		db := topologyDB(b, ne)
		stmt, err := db.Prepare(`SELECT TOP 1 SUM(PS.Edges.w), PS.Length FROM G.Paths PS
			HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`)
		if err != nil {
			b.Fatal(err)
		}
		nv := ne / 5
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(mix(3*ne+i)%nv, mix(4*ne+i)%nv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestShortestPathTwoSidedWork pins the two-sided SPScan's work on
// BenchmarkShortestPathSPScan/prepared's view and pairs: summed over the
// pairs, EXPLAIN ANALYZE's edges_traversed is at least 10x lower than
// through the one-sided kernel, which a length bound no path reaches
// selects, and every pair costs the same both ways. The counts are a
// function of the data, so the test is deterministic.
func TestShortestPathTwoSidedWork(t *testing.T) {
	checkTwoSidedWork(t, `SELECT TOP 1 SUM(PS.Edges.w) FROM G.Paths PS
		HINT(SHORTESTPATH(w)) WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`, "")
}

// TestReachTwoSidedWork pins the two-sided BFScan's work the same way, on
// BenchmarkPathScanReachabilityBFS/prepared's view and pairs: at least 10x
// fewer edges_traversed than the one-sided BFScan, and every pair's path
// has the same length both ways.
func TestReachTwoSidedWork(t *testing.T) {
	checkTwoSidedWork(t, `SELECT PS.Length FROM G.Paths PS
		WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`, " LIMIT 1")
}

// checkTwoSidedWork runs q (a format taking the two endpoints, then tail)
// on 24 pairs of the 20k/100k view, planned two-sided and in the
// one-sided form a length bound no path reaches keeps. Every pair must
// answer the same rows both ways, and the two-sided form's summed
// edges_traversed must be at least 10x lower.
func checkTwoSidedWork(t *testing.T, q, tail string) {
	const ne, pairs = 100_000, 24
	nv := ne / 5
	db := topologyDB(t, ne)
	analyze := func(sql string) (edges int64, rows string) {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE " + sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range plan.Rows {
			if _, err := fmt.Sscanf(r[0].S, "Counters: edges_traversed=%d", &edges); err == nil {
				break
			}
		}
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		return edges, fmt.Sprint(res.Rows)
	}
	var two, one int64
	for i := 0; i < pairs; i++ {
		src, dst := mix(3*ne+i)%nv, mix(4*ne+i)%nv
		sql := fmt.Sprintf(q, src, dst)
		if i == 0 {
			if plan, err := db.Explain(sql + tail); err != nil || !strings.Contains(plan, "sides=2") {
				t.Fatalf("the plain query is not planned two-sided (%v):\n%s", err, plan)
			}
		}
		e2, r2 := analyze(sql + tail)
		e1, r1 := analyze(sql + fmt.Sprintf(" AND PS.Length <= %d", nv) + tail)
		if r2 != r1 {
			t.Fatalf("%d→%d: two-sided %s, one-sided %s", src, dst, r2, r1)
		}
		two, one = two+e2, one+e1
	}
	t.Logf("edges_traversed over %d pairs: two-sided %d, one-sided %d (%.1fx)", pairs, two, one, float64(one)/float64(two))
	if two == 0 || one < 10*two {
		t.Fatalf("edges_traversed over %d pairs: two-sided %d, one-sided %d, want >= 10x fewer", pairs, two, one)
	}
}

// BenchmarkAnalyticsPageRank runs the layered benchmark's prepared
// PAGERANK aggregate over a 20k-vertex, 100k-edge view, which the scan
// folds. The hit leg reads the result the version memoized on its first
// execution; the miss leg runs the kernel every time, on a fresh version
// made by an untimed edge INSERT or DELETE before each execution. The rows
// leg is a memo hit that returns every row, so the scan's row emission
// keeps a number.
func BenchmarkAnalyticsPageRank(b *testing.B) {
	const ne = 100_000
	const q = `SELECT MAX(PR.rank), COUNT(*) FROM G.PAGERANK(0.85, 20) PR`
	hit := func(q string) func(b *testing.B) {
		return func(b *testing.B) {
			db := topologyDB(b, ne)
			stmt, err := db.Prepare(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := stmt.Query(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("hit", hit(q))
	b.Run("rows", hit(`SELECT * FROM G.PAGERANK(0.85, 20) PR`))
	b.Run("miss", func(b *testing.B) {
		db := topologyDB(b, ne)
		stmt, err := db.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		ins, err := db.PrepareDML(`INSERT INTO E VALUES (?, 0, 1, 1.5)`)
		if err != nil {
			b.Fatal(err)
		}
		del, err := db.PrepareDML(`DELETE FROM E WHERE eid = ?`)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			write := ins
			if i%2 == 1 {
				write = del
			}
			if _, err := write.Exec(ne + i/2); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := stmt.Query(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyticsDegree runs a prepared DEGREE_CENTRALITY aggregate
// over a 20k-vertex, 100k-edge view. DEGREE_CENTRALITY has no memo slot,
// so every execution runs the O(V) kernel.
func BenchmarkAnalyticsDegree(b *testing.B) {
	db := topologyDB(b, 100_000)
	stmt, err := db.Prepare(`SELECT MAX(DC.out_degree), COUNT(*) FROM G.DEGREE_CENTRALITY() DC`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Query(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	db := socialDB(b, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT COUNT(*) FROM Users U, Friends F WHERE U.uid = F.a`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWithViewMaintenance(b *testing.B) {
	db := socialDB(b, 1000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := 1_000_000 + i
		db.MustExec(fmt.Sprintf("INSERT INTO Friends VALUES (%d, %d, %d, 2020)", id, i%1000, (i+13)%1000))
		db.MustExec(fmt.Sprintf("DELETE FROM Friends WHERE fid = %d", id))
	}
}

// topologyDB builds a directed graph view over ne random edges among ne/5
// vertices, each with a DOUBLE weight w in [1, 100), the shape of the
// layered benchmark's graph. The tables are loaded before the view
// exists, so the view starts from one fresh build.
func topologyDB(b testing.TB, ne int) *DB {
	b.Helper()
	nv := ne / 5
	db := Open(Config{})
	db.MustExec(`CREATE TABLE V (vid BIGINT PRIMARY KEY)`)
	db.MustExec(`CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE)`)
	insertAll(db, nv, "V", func(i int) string { return fmt.Sprintf("(%d)", i) })
	insertAll(db, ne, "E", func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d.5)", i, mix(i)%nv, mix(ne+i)%nv, 1+mix(2*ne+i)%99)
	})
	db.MustExec(`CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = src, TO = dst, w = w) FROM E`)
	return db
}

// insertAll inserts rows 0..n-1 of table, 1000 to a statement.
func insertAll(db *DB, n int, table string, row func(i int) string) {
	for i := 0; i < n; i += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for j := i; j < n && j < i+1000; j++ {
			if j > i {
				sb.WriteString(", ")
			}
			sb.WriteString(row(j))
		}
		db.MustExec(sb.String())
	}
}

// filterDB builds a 20k-vertex view of ne edges shaped like the layered
// benchmark's traverse.read graph: vertex i is in group i % 1000 (grp),
// every edge carries a weight w and a selectivity attribute sel in
// [0, 100).
func filterDB(b testing.TB, ne int) *DB {
	b.Helper()
	nv := ne / 5
	db := Open(Config{})
	db.MustExec(`CREATE TABLE V (vid BIGINT PRIMARY KEY, grp BIGINT)`)
	db.MustExec(`CREATE INDEX v_grp ON V (grp)`)
	db.MustExec(`CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT)`)
	insertAll(db, nv, "V", func(i int) string { return fmt.Sprintf("(%d, %d)", i, i%1000) })
	insertAll(db, ne, "E", func(i int) string {
		return fmt.Sprintf("(%d, %d, %d, %d.5, %d)", i, mix(i)%nv, mix(ne+i)%nv, 1+mix(2*ne+i)%99, mix(3*ne+i)%100)
	})
	db.MustExec(`CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid, grp = grp) FROM V
		EDGES(ID = eid, FROM = src, TO = dst, w = w, sel = sel) FROM E`)
	return db
}

// pushedFilterLegs are BenchmarkPathScanPushedFilter's statements: the
// layered benchmark's join template (20 sources per group, two hops), and
// a two-hop count from one source, both under the pushed predicate
// Edges[0..*].sel < 50. arg picks the i-th execution's parameter.
var pushedFilterLegs = []struct {
	name, q string
	arg     func(i int) int
}{
	{"join", `SELECT COUNT(*) FROM V U, G.Paths PS HINT(BFS) WHERE U.grp = ? AND PS.StartVertex.Id = U.vid
		AND PS.Length <= 2 AND PS.Edges[0..*].sel < 50`, func(i int) int { return mix(5*100_000+i) % 1000 }},
	{"hop2", `SELECT COUNT(*) FROM G.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = ?
		AND PS.Length <= 2 AND PS.Edges[0..*].sel < 50`, func(i int) int { return mix(6*100_000+i) % 20_000 }},
}

// warmFilterColumns runs the join leg over every group, which lets the
// view's binding lay out its sel column, and fails unless it did.
func warmFilterColumns(tb testing.TB, db *DB) {
	tb.Helper()
	join, err := db.Prepare(pushedFilterLegs[0].q)
	if err != nil {
		tb.Fatal(err)
	}
	for g := 0; g < 1000; g++ {
		if _, err := join.Query(g); err != nil {
			tb.Fatal(err)
		}
	}
	if n := metricOf(db, "graphview.G.column_builds"); n != 1 {
		tb.Fatalf("the warm-up laid out %d columns, want the sel column", n)
	}
}

// metricOf reads one SHOW METRICS entry by name (-1 when absent).
func metricOf(db *DB, name string) int64 {
	for _, kv := range db.Engine().MetricsSnapshot() {
		if kv.Name == name {
			return kv.Value
		}
	}
	return -1
}

// BenchmarkPathScanPushedFilter times the pushedFilterLegs on a binding
// that has laid out its sel column (warmFilterColumns), so the pushed
// predicate runs typed: the kernels test sel on the column, not through
// the filter closure. It is the in-process profiling target for pushed
// path predicates.
func BenchmarkPathScanPushedFilter(b *testing.B) {
	db := filterDB(b, 100_000)
	warmFilterColumns(b, db)
	for _, leg := range pushedFilterLegs {
		b.Run(leg.name, func(b *testing.B) {
			stmt, err := db.Prepare(leg.q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stmt.Query(leg.arg(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPushedFilterColumnWork checks BenchmarkPathScanPushedFilter's legs
// on fixed parameters through the filter closure (a fresh binding) and
// typed (after warmFilterColumns): EXPLAIN ANALYZE reports the same
// summed edges_traversed and every probe the same rows, with typed=0
// before and typed > 0 after. A prepared execution of each leg then
// allocates no more than through the closure.
func TestPushedFilterColumnWork(t *testing.T) {
	const probes = 12
	db := filterDB(t, 100_000)
	actuals := regexp.MustCompile(`probes=(\d+) two_sided=\d+ typed=(\d+)\)$`)
	run := func(q string) (edges int64, typed int, rows string) {
		t.Helper()
		plan, err := db.Query("EXPLAIN ANALYZE " + q)
		if err != nil {
			t.Fatal(err)
		}
		typed = -1
		for _, r := range plan.Rows {
			if m := actuals.FindStringSubmatch(r[0].S); m != nil {
				typed, _ = strconv.Atoi(m[2])
			}
			fmt.Sscanf(r[0].S, "Counters: edges_traversed=%d", &edges)
		}
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return edges, typed, fmt.Sprint(res.Rows)
	}
	allocs := func() []float64 {
		var out []float64
		for _, leg := range pushedFilterLegs {
			stmt, err := db.Prepare(leg.q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, testing.AllocsPerRun(5, func() {
				if _, err := stmt.Query(leg.arg(0)); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return out
	}
	sweep := func(wantTyped bool) (edges []int64, rows []string) {
		for _, leg := range pushedFilterLegs {
			var sum int64
			for i := 0; i < probes; i++ {
				q := strings.Replace(leg.q, "?", strconv.Itoa(leg.arg(i)), 1)
				e, typed, r := run(q)
				if (typed > 0) != wantTyped || typed < 0 {
					t.Fatalf("%s probe %d: typed=%d, want typed probes %v", leg.name, i, typed, wantTyped)
				}
				sum += e
				rows = append(rows, r)
			}
			edges = append(edges, sum)
		}
		return edges, rows
	}
	closureEdges, closureRows := sweep(false)
	closureAllocs := allocs()
	if metricOf(db, "graphview.G.column_builds") != 0 {
		t.Fatal("the closure sweep laid out a column")
	}
	warmFilterColumns(t, db)
	typedEdges, typedRows := sweep(true)
	typedAllocs := allocs()
	t.Logf("edges_traversed join/hop2: %v; allocs/op closure %v, typed %v", typedEdges, closureAllocs, typedAllocs)
	if !slices.Equal(closureEdges, typedEdges) || closureEdges[0] == 0 || closureEdges[1] == 0 {
		t.Fatalf("edges_traversed join/hop2: closure %v, typed %v", closureEdges, typedEdges)
	}
	for i := range closureRows {
		if closureRows[i] != typedRows[i] {
			t.Fatalf("probe %d: closure %s, typed %s", i, closureRows[i], typedRows[i])
		}
	}
	for i, leg := range pushedFilterLegs {
		if !raceEnabled && typedAllocs[i] > closureAllocs[i] {
			t.Errorf("%s: %.0f allocs/op typed, %.0f through the closure", leg.name, typedAllocs[i], closureAllocs[i])
		}
	}
}

// mix scatters i over the non-negative ints (the splitmix64 finalizer).
func mix(i int) int {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int((x ^ x>>31) >> 1)
}

// BenchmarkTopologyWrite is one prepared edge INSERT plus one DELETE of the
// same edge through a graph view. Every statement publishes a version, so
// each write is the first topology change after a publish: its cost must
// not grow with the size of the view.
func BenchmarkTopologyWrite(b *testing.B) {
	for _, ne := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("E=%dk", ne/1000), func(b *testing.B) {
			db := topologyDB(b, ne)
			ins, err := db.PrepareDML(`INSERT INTO E VALUES (?, ?, ?, 1.5)`)
			if err != nil {
				b.Fatal(err)
			}
			del, err := db.PrepareDML(`DELETE FROM E WHERE eid = ?`)
			if err != nil {
				b.Fatal(err)
			}
			nv := ne / 5
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ne + i
				if r, err := ins.Exec(id, i%nv, (i*31+1)%nv); err != nil || r.Affected != 1 {
					b.Fatalf("insert: %v, %v", r, err)
				}
				if r, err := del.Exec(id); err != nil || r.Affected != 1 {
					b.Fatalf("delete: %v, %v", r, err)
				}
			}
		})
	}
}

func BenchmarkParseAndPlanOnly(b *testing.B) {
	db := socialDB(b, 100, 2)
	q := `SELECT PS.EndVertex.name FROM Users U, Social.Paths PS
		WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Explain(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleCount(b *testing.B) {
	db := socialDB(b, 500, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := `SELECT COUNT(P) FROM Social.Paths P
			WHERE P.Length = 3 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// accountsDB builds the 20k-row table behind the point-access benchmarks:
// a primary key on id, a hash index on acct_no, an ordered index on bal.
func accountsDB(b *testing.B) *DB {
	b.Helper()
	const rows = 20000
	db := Open(Config{})
	db.MustExec(`CREATE TABLE accounts (id BIGINT PRIMARY KEY, acct_no BIGINT, bal BIGINT)`)
	db.MustExec(`CREATE INDEX accounts_no ON accounts (acct_no)`)
	db.MustExec(`CREATE ORDERED INDEX accounts_bal ON accounts (bal)`)
	for i := 0; i < rows; i += 500 {
		batch := "INSERT INTO accounts VALUES "
		for j := i; j < i+500; j++ {
			if j > i {
				batch += ", "
			}
			batch += fmt.Sprintf("(%d, %d, %d)", j, 1_000_000+j, j*10)
		}
		db.MustExec(batch)
	}
	return db
}

// BenchmarkPointSelect reads one row by key, ad hoc. The two legs take the
// same access path — an index point probe — through the primary key and
// through a hash index; before the primary key was planned as the index it
// is, pk scanned the table (about 260x slower than hash at this size).
func BenchmarkPointSelect(b *testing.B) {
	db := accountsDB(b)
	for _, leg := range []struct{ name, q string }{
		{"pk", `SELECT bal FROM accounts WHERE id = %d`},
		{"hash", `SELECT bal FROM accounts WHERE acct_no = 1%06d`},
	} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r, err := db.Query(fmt.Sprintf(leg.q, i%20000)); err != nil || len(r.Rows) != 1 {
					b.Fatalf("%v, %v", r, err)
				}
			}
		})
	}
}

// BenchmarkPointUpdate runs prepared UPDATEs whose WHERE the shared
// selector resolves through an index: the primary key alone, the primary
// key with a residual conjunct, and a 10-row range of the ordered index
// (the last two scanned the table before DML shared SELECT's selector).
func BenchmarkPointUpdate(b *testing.B) {
	db := accountsDB(b)
	for _, leg := range []struct {
		name, q string
		args    func(i int) []any
		rows    int
	}{
		{"pk", `UPDATE accounts SET acct_no = acct_no WHERE id = ?`,
			func(i int) []any { return []any{i % 20000} }, 1},
		{"pk_and_residual", `UPDATE accounts SET acct_no = acct_no WHERE id = ? AND bal >= 0`,
			func(i int) []any { return []any{i % 20000} }, 1},
		{"range", `UPDATE accounts SET acct_no = acct_no WHERE bal >= ? AND bal < ?`,
			func(i int) []any { lo := i % 19990 * 10; return []any{lo, lo + 100} }, 10},
	} {
		stmt, err := db.PrepareDML(leg.q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r, err := stmt.Exec(leg.args(i)...); err != nil || r.Affected != leg.rows {
					b.Fatalf("%v, %v", r, err)
				}
			}
		})
	}
}
