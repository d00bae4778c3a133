package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// typedEngine builds a directed ladder over n vertexes — i links to i+1
// and i+2 — whose edges and vertexes carry a BIGINT, a DOUBLE and a
// VARCHAR attribute. The BIGINTs straddle ±2^53, where a float64 column
// would merge neighbours; every tenth-or-so value is NULL. Edges are
// inserted in reverse, so arc order and edge-index order differ. With delta set
// the version also holds delta edges and tombstones, and the DOUBLEs hold
// NaN, ±Inf and −0 either way.
func typedEngine(t *testing.T, n int, delta bool) *Engine {
	t.Helper()
	const p53 = int64(1) << 53
	ints := []int64{p53 - 1, p53, p53 + 1, p53 + 2, -p53 - 1, -p53, 0, 7}
	doubles := []float64{0.5, -0.5, 0, 1.5, 2.5, 3.25}
	bigint := func(i int) string {
		if i%9 == 8 {
			return "NULL"
		}
		return fmt.Sprint(ints[i%len(ints)])
	}
	double := func(i int) string {
		if i%7 == 6 {
			return "NULL"
		}
		return fmt.Sprintf("%g", doubles[i%len(doubles)])
	}
	str := func(prefix string, i int) string {
		if i%11 == 10 {
			return "NULL"
		}
		return fmt.Sprintf("'%s%d'", prefix, i%6)
	}
	e := New(Options{})
	var sb strings.Builder
	sb.WriteString(`CREATE TABLE V (vid BIGINT PRIMARY KEY, vi BIGINT, vf DOUBLE, vs VARCHAR);
		CREATE TABLE E (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, a BIGINT, d DOUBLE, s VARCHAR);
		INSERT INTO V VALUES `)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %s, %s, %s)", i, bigint(i+3), double(i+1), str("v", i))
	}
	// The edges are inserted last first, so a vertex's traversal arcs sit
	// far from their edge indexes and a column read at the wrong layout
	// shows.
	var edges []string
	eid := 0
	for i := 0; i < n; i++ {
		for d := 1; d <= 2 && i+d < n; d++ {
			edges = append(edges, fmt.Sprintf("(%d, %d, %d, %s, %s, %s)", eid, i, i+d, bigint(eid), double(eid), str("e", eid)))
			eid++
		}
	}
	slices.Reverse(edges)
	sb.WriteString(";\nINSERT INTO E VALUES " + strings.Join(edges, ", "))
	sb.WriteString(`;
		CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = vid, vi = vi, vf = vf, vs = vs) FROM V
			EDGES(ID = eid, FROM = src, TO = dst, a = a, d = d, s = s) FROM E;`)
	mustScript(t, e, sb.String())
	if delta {
		mustScript(t, e, fmt.Sprintf(`DELETE FROM E WHERE eid IN (4, 11, 17);
			INSERT INTO E VALUES (100, 1, 5, %d, 0.25, 'e2'), (101, 5, 9, %d, 1.5, NULL), (102, 2, 4, NULL, NULL, 'e9')`,
			p53+1, -p53-1))
	}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for table, col := range map[string]string{"E": "d", "V": "vf"} {
		key := "eid"
		if table == "V" {
			key = "vid"
		}
		p, err := e.PrepareDML(fmt.Sprintf(`UPDATE %s SET %s = ? WHERE %s = ?`, table, col, key))
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range special {
			for _, id := range []int64{int64(3 + i), int64(13 + i), int64(21 + i)} {
				if _, err := p.Exec(types.NewFloat(f), types.NewInt(id)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return e
}

// runAtParams runs the SELECT q with params against the state st and
// renders its rows, or returns its error.
func runAtParams(e *Engine, st *dbState, q string, params ...types.Value) (string, error) {
	stmt, err := sql.Parse(q)
	if err != nil {
		return "", err
	}
	res, err := selectOn(context.Background(), e, st, stmt.(*sql.Select), params)
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

// TestTypedFilterMatchesClosure runs every pushed filter of the battery
// twice on fresh bindings of one version: unearned, where the filter
// closure answers every element, and earned, where the binding lays out
// the filter's typed columns (the build counter moves by exactly the
// columns the filter can use) and the kernels test the column. Both must
// return the same rows, or the same error. The battery covers BIGINT
// bounds at ±2^53 ± 1, DOUBLE entries that are NaN, ±Inf and −0, NULL
// entries under <, =, IN and NOT IN, a BIGINT attribute against a DOUBLE
// constant or parameter (closure only), flipped comparisons, subscripted
// ranges, VARCHAR filters (closure only) and vertex filters, on versions
// with and without a delta, through BFScan, DFScan and SPScan.
func TestTypedFilterMatchesClosure(t *testing.T) {
	const (
		p53p1 = "9007199254740993"  // 2^53 + 1
		m53m1 = "-9007199254740993" // -2^53 - 1
	)
	shapes := []string{
		`SELECT PS.PathString FROM G.Paths PS HINT(BFS) WHERE PS.StartVertex.Id = 0 AND PS.Length <= 6 AND %s`,
		`SELECT COUNT(*) FROM G.Paths PS HINT(DFS) WHERE PS.Length <= 3 AND %s`,
		`SELECT TOP 3 PS.PathString FROM G.Paths PS HINT(SHORTESTPATH(a)) WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 20 AND %s`,
	}
	cases := []struct {
		filter string
		params []types.Value
		cols   int // typed columns the filter lays out
	}{
		{filter: "PS.Edges[0..*].a < " + p53p1, cols: 1},
		{filter: "PS.Edges[0..*].a <= " + p53p1, cols: 1},
		{filter: "PS.Edges[0..*].a <> " + p53p1, cols: 1},
		{filter: "PS.Edges[0..*].a >= " + m53m1, cols: 1},
		{filter: "PS.Edges[0..*].a = 9007199254740992", cols: 1},
		{filter: "PS.Edges[0..*].a IN (" + p53p1 + ", " + m53m1 + ", 7)", cols: 1},
		{filter: "PS.Edges[0..*].a NOT IN (9007199254740992, 0)", cols: 1},
		{filter: p53p1 + " > PS.Edges[0..*].a", cols: 1},
		{filter: "0 < PS.Edges[0..*].a", cols: 1},
		{filter: "PS.Edges[1].a > 0", cols: 1},
		{filter: "PS.Edges[1..*].a < " + p53p1, cols: 1},
		{filter: "PS.Edges[0..1].a >= 0", cols: 1},
		{filter: "PS.Edges[0..*].a < ?", params: []types.Value{types.NewInt(1<<53 + 1)}, cols: 1},
		// A DOUBLE bound against a BIGINT attribute keeps the closure.
		{filter: "PS.Edges[0..*].a < 9007199254740993.0"},
		{filter: "PS.Edges[0..*].a < ?", params: []types.Value{types.NewFloat(1 << 53)}},
		{filter: "PS.Edges[0..*].a IN (7, 0.5)"},
		{filter: "PS.Edges[0..*].d < 0.5", cols: 1},
		{filter: "PS.Edges[0..*].d = 0.0", cols: 1},
		{filter: "PS.Edges[0..*].d <> 0.0", cols: 1},
		{filter: "PS.Edges[0..*].d >= -0.5", cols: 1},
		{filter: "1.5 <= PS.Edges[0..*].d", cols: 1},
		{filter: "2.5 >= PS.Edges[0..*].d", cols: 1},
		{filter: "PS.Edges[0..*].d IN (0.0, 2.5)", cols: 1},
		{filter: "PS.Edges[0..*].d NOT IN (1.5)", cols: 1},
		{filter: "PS.Edges[0..*].d < ?", params: []types.Value{types.NewFloat(math.Inf(1))}, cols: 1},
		{filter: "PS.Edges[0..*].d > ?", params: []types.Value{types.NewFloat(math.Inf(-1))}, cols: 1},
		{filter: "PS.Edges[0..*].d = ?", params: []types.Value{types.NewFloat(math.NaN())}, cols: 1},
		{filter: "PS.Edges[0..*].d <= ?", params: []types.Value{types.NewFloat(math.Copysign(0, -1))}, cols: 1},
		// VARCHAR attributes lay out no column and keep the closure.
		{filter: "PS.Edges[0..*].s < 'e3'"},
		{filter: "PS.Edges[0..*].s = 'e2'"},
		{filter: "PS.Edges[0..*].s IN ('e1', 'zz', 'e4')"},
		{filter: "PS.Edges[0..*].s NOT IN ('e0', 'absent')"},
		{filter: "PS.Edges[0..*].s LIKE 'e%'"},
		{filter: "PS.Edges[0..*].s = 'e2' AND PS.Edges[0..*].d < 2.5", cols: 1},
		{filter: "PS.Edges[0..*].a < " + p53p1 + " AND PS.Edges[0..*].d < 2.5", cols: 2},
		{filter: "PS.Edges[0..*].a < " + p53p1 + " AND PS.Edges[0..*].a < 9.5", cols: 1},
		{filter: "PS.Vertexes[1..*].vi < " + p53p1, cols: 1},
		{filter: "PS.Vertexes[0..*].vi NOT IN (" + p53p1 + ")", cols: 1},
		{filter: "PS.Vertexes[0..*].vf > 0.0", cols: 1},
		{filter: "PS.Vertexes[1..*].vf = ?", params: []types.Value{types.NewFloat(math.NaN())}, cols: 1},
		{filter: "PS.Vertexes[1..*].vs <> 'v3'"},
		{filter: "PS.Vertexes[1..*].fanout >= 1"},
		{filter: "PS.Vertexes[1..*].vi >= 0 AND PS.Edges[0..*].d < 3.0", cols: 2},
	}
	answered := 0
	for _, delta := range []bool{false, true} {
		e := typedEngine(t, 30, delta)
		gv := mustView(t, e, "G")
		st := e.pin()
		if got := st.ats[gv].Topo.DeltaLen() > 0; got != delta {
			t.Fatalf("delta=%v: the version's delta holds %d events", delta, st.ats[gv].Topo.DeltaLen())
		}
		for _, shape := range shapes {
			for _, tc := range cases {
				q := fmt.Sprintf(shape, tc.filter)
				label := fmt.Sprintf("delta=%v %s %v", delta, q, tc.params)
				if tc.params == nil {
					if plan, err := e.Explain(q); err != nil || !strings.Contains(plan, "pushed=") {
						t.Fatalf("%s: the filter was not pushed (%v):\n%s", label, err, plan)
					}
				}
				builds := gv.ColumnBuilds()
				want, wantErr := runAtParams(e, freshBinding(st, gv, false), q, tc.params...)
				if gv.ColumnBuilds() != builds {
					t.Fatalf("%s: an unearned binding laid out a column", label)
				}
				got, gotErr := runAtParams(e, freshBinding(st, gv, true), q, tc.params...)
				// SPScan lays out its weight column too, unless the filter's
				// column of a is that column.
				wantCols := int64(tc.cols)
				if strings.Contains(shape, "SHORTESTPATH(a)") &&
					!(tc.cols > 0 && strings.Contains(tc.filter+" ", "].a ")) {
					wantCols++
				}
				if n := gv.ColumnBuilds() - builds; n != wantCols {
					t.Fatalf("%s: an earned binding laid out %d columns, want %d", label, n, wantCols)
				}
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: the typed columns diverged from the closure:\n typed:   %q %v\n closure: %q %v",
						label, got, gotErr, want, wantErr)
				}
				if wantErr == nil && want != "" && want != "0\n" {
					answered++
				}
			}
		}
		e.unpin(st)
	}
	if total := 2 * len(shapes) * len(cases); answered < total/2 {
		t.Fatalf("only %d of %d probes returned rows: the battery checks too little", answered, total)
	}
}
