package grfusion

// bench_test.go wires every table and figure of the paper's evaluation
// (§7) into `go test -bench`. Each BenchmarkTableN/BenchmarkFigN runs the
// corresponding experiment from internal/bench at a reduced scale and
// logs the paper-style rows (run with -v to see them); cmd/grbench runs
// the same experiments at full scale with flags. The remaining benchmarks
// are micro-benchmarks of the engine's hot paths.

import (
	"fmt"
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

func BenchmarkPathScanReachabilityBFS(b *testing.B) {
	db := socialDB(b, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf(`SELECT PS.PathString FROM Social.Paths PS HINT(BFS)
			WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d LIMIT 1`, i%2000, (i+997)%2000)
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
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

func BenchmarkShortestPathSPScan(b *testing.B) {
	db := socialDB(b, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf(`SELECT TOP 1 PS.PathString FROM Social.Paths PS HINT(SHORTESTPATH(since))
			WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d`, i%2000, (i+1333)%2000)
		if _, err := db.Query(q); err != nil {
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
// vertices, the shape of the layered benchmark's graph. The tables are
// loaded before the view exists, so the view starts from one fresh build.
func topologyDB(b *testing.B, ne int) *DB {
	b.Helper()
	nv := ne / 5
	db := Open(Config{})
	db.MustExec(`CREATE TABLE V (vid BIGINT PRIMARY KEY)`)
	db.MustExec(`CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT)`)
	insertAll := func(n int, table string, row func(i int) string) {
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
	insertAll(nv, "V", func(i int) string { return fmt.Sprintf("(%d)", i) })
	insertAll(ne, "E", func(i int) string {
		return fmt.Sprintf("(%d, %d, %d)", i, (i*7919)%nv, (i*104729+13)%nv)
	})
	db.MustExec(`CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid) FROM V
		EDGES(ID = eid, FROM = src, TO = dst) FROM E`)
	return db
}

// BenchmarkTopologyWrite is one prepared edge INSERT plus one DELETE of the
// same edge through a graph view. Every statement publishes a version, so
// each write is the first topology change after a publish: its cost must
// not grow with the size of the view.
func BenchmarkTopologyWrite(b *testing.B) {
	for _, ne := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("E=%dk", ne/1000), func(b *testing.B) {
			db := topologyDB(b, ne)
			ins, err := db.PrepareDML(`INSERT INTO E VALUES (?, ?, ?)`)
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
