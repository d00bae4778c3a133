package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"grfusion/internal/exec"
	"grfusion/internal/types"
)

// This file tests the one table access path end to end: whichever index the
// selector picks — the primary key, a hash index, an ordered index, none —
// SELECT, UPDATE and DELETE agree with a table that has no index at all,
// idle and under a concurrent writer.

// accessTwins creates IX (primary key on id, hash index on n, ordered index
// on f) and BARE (same columns, no key, no index) holding the same rows,
// NULL keys included.
func accessTwins(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{})
	mustScript(t, e, `
		CREATE TABLE IX (id BIGINT PRIMARY KEY, n BIGINT, f DOUBLE, s VARCHAR);
		CREATE INDEX ix_n ON IX (n);
		CREATE ORDERED INDEX ix_f ON IX (f);
		CREATE TABLE BARE (id BIGINT, n BIGINT, f DOUBLE, s VARCHAR);`)
	var vals []string
	for i := 1; i <= 12; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %.1f, 'r%d')", i, i%4, float64(i%6)+0.5*float64(i%2), i))
	}
	vals = append(vals, "(NULL, 1, 2.0, 'nullid')", "(20, NULL, 2.5, 'nulln')", "(21, 2, NULL, 'nullf')")
	for _, tb := range []string{"IX", "BARE"} {
		mustExec(t, e, "INSERT INTO "+tb+" VALUES "+strings.Join(vals, ", "))
	}
	return e
}

func sortedRows(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row)
	}
	sort.Strings(out)
	return out
}

func TestAccessPathEquivalence(t *testing.T) {
	I, F, S, null := types.NewInt, types.NewFloat, types.NewString, types.Null()
	cases := []struct {
		where  string
		params []types.Value
		empty  bool // must select nothing: a NULL or incomparable constant
	}{
		// Primary key.
		{where: "id = ?", params: []types.Value{I(5)}},
		{where: "? = id", params: []types.Value{I(5)}},
		{where: "id = ?", params: []types.Value{F(5.0)}},
		{where: "id = ?", params: []types.Value{F(5.5)}, empty: true},
		{where: "id = ?", params: []types.Value{S("5")}, empty: true},
		{where: "id = ?", params: []types.Value{I(999)}, empty: true},
		{where: "id = ?", params: []types.Value{null}, empty: true},
		{where: "id = ? AND n >= 0", params: []types.Value{I(5)}},
		{where: "s = 'r5' AND id = ?", params: []types.Value{I(5)}},
		{where: "id = ? AND s = 'nope'", params: []types.Value{I(5)}, empty: true},
		{where: "id = ? AND id = 6", params: []types.Value{I(5)}, empty: true},
		// Hash index.
		{where: "n = ?", params: []types.Value{I(2)}},
		{where: "? = n", params: []types.Value{I(2)}},
		{where: "n = ?", params: []types.Value{F(2.0)}},
		{where: "n = ?", params: []types.Value{S("2")}, empty: true},
		{where: "n = ?", params: []types.Value{null}, empty: true},
		{where: "n = ? AND f > 1", params: []types.Value{I(2)}},
		// Ordered index, point.
		{where: "f = ?", params: []types.Value{F(2.5)}},
		{where: "f = ?", params: []types.Value{I(2)}},
		{where: "f = ?", params: []types.Value{S("2.5")}, empty: true},
		{where: "f = ?", params: []types.Value{null}, empty: true},
		// Ordered index, ranges: open, closed, flipped, empty, NULL-bounded.
		{where: "f >= ?", params: []types.Value{F(2.5)}},
		{where: "f > ?", params: []types.Value{F(2.5)}},
		{where: "f < ?", params: []types.Value{F(2.5)}},
		{where: "f <= ?", params: []types.Value{I(2)}},
		{where: "? > f", params: []types.Value{I(3)}},
		{where: "f >= ? AND f < ?", params: []types.Value{I(1), I(3)}},
		{where: "f > ? AND f <= ?", params: []types.Value{I(1), I(3)}},
		{where: "f >= ? AND f < ? AND n = 1", params: []types.Value{I(1), I(4)}},
		{where: "f >= ? AND f < ?", params: []types.Value{I(3), I(1)}, empty: true},
		{where: "f >= ?", params: []types.Value{null}, empty: true},
		{where: "f < ?", params: []types.Value{null}, empty: true},
		{where: "f >= ? AND f < ?", params: []types.Value{I(1), null}, empty: true},
		{where: "f < ?", params: []types.Value{S("x")}, empty: true},
		{where: "f >= ?", params: []types.Value{S("")}, empty: true},
		// No index serves these.
		{where: "s = ?", params: []types.Value{S("r7")}},
		{where: "id = n"},
	}
	literal := func(v types.Value) string {
		if v.Kind == types.KindString {
			return "'" + v.S + "'"
		}
		return v.String()
	}
	for _, tc := range cases {
		for _, prepared := range []bool{false, true} {
			where, params := tc.where, tc.params
			if !prepared {
				for _, p := range params {
					where = strings.Replace(where, "?", literal(p), 1)
				}
				params = nil
			}
			name := fmt.Sprintf("%s %v", where, params)
			e := accessTwins(t)
			query := func(tb string) []string {
				p, err := e.Prepare("SELECT id, n, f, s FROM " + tb + " WHERE " + where)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r, err := p.Query(params...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return sortedRows(r)
			}
			dml := func(stmt string) int {
				p, err := e.PrepareDML(stmt + " WHERE " + where)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r, err := p.Exec(params...)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, stmt, err)
				}
				return r.Affected
			}
			contents := func(tb string) []string { return sortedRows(mustExec(t, e, "SELECT id, n, f, s FROM "+tb)) }

			ix, bare := query("IX"), query("BARE")
			if fmt.Sprint(ix) != fmt.Sprint(bare) || (tc.empty && len(ix) != 0) {
				t.Errorf("SELECT WHERE %s: indexed %v, bare %v (empty=%v)", name, ix, bare, tc.empty)
			}
			// The SET moves the row in every index, the ones that found it included.
			const set = " SET s = 'hit', n = n + 100, f = f + 100"
			if a, b := dml("UPDATE IX"+set), dml("UPDATE BARE"+set); a != b || a != len(bare) {
				t.Errorf("UPDATE WHERE %s: indexed affected %d, bare %d, SELECT found %d", name, a, b, len(bare))
			}
			if a, b := contents("IX"), contents("BARE"); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("after UPDATE WHERE %s: indexed %v, bare %v", name, a, b)
			}
		}
	}
	// DELETE, on fresh twins so the predicate meets the seeded rows again.
	for _, tc := range cases {
		e := accessTwins(t)
		del := func(tb string) int {
			p, err := e.PrepareDML("DELETE FROM " + tb + " WHERE " + tc.where)
			if err != nil {
				t.Fatal(err)
			}
			r, err := p.Exec(tc.params...)
			if err != nil {
				t.Fatalf("DELETE WHERE %s %v: %v", tc.where, tc.params, err)
			}
			return r.Affected
		}
		a, b := del("IX"), del("BARE")
		if a != b || (tc.empty && a != 0) {
			t.Errorf("DELETE WHERE %s %v: indexed affected %d, bare %d (empty=%v)", tc.where, tc.params, a, b, tc.empty)
		}
		ix := sortedRows(mustExec(t, e, "SELECT id, n, f, s FROM IX"))
		bare := sortedRows(mustExec(t, e, "SELECT id, n, f, s FROM BARE"))
		if fmt.Sprint(ix) != fmt.Sprint(bare) {
			t.Errorf("after DELETE WHERE %s %v: indexed %v, bare %v", tc.where, tc.params, ix, bare)
		}
	}
	// The ad hoc spelling of the DML cases the issue names.
	e := accessTwins(t)
	for _, q := range []string{"UPDATE IX SET s = 'hit' WHERE id = NULL", "DELETE FROM IX WHERE id = NULL"} {
		if r := mustExec(t, e, q); r.Affected != 0 {
			t.Errorf("%s affected %d rows; NULL equals nothing", q, r.Affected)
		}
	}
}

// TestPinnedReaderKeepsItsRowsOnEveryAccessPath parks a reader in its
// scan's Open — after it pinned its version, before it probes — while a
// writer deletes the probed row, re-keys another row onto the probed key
// and inserts a third with it. The live indexes then describe a different
// table; the reader must still return exactly the row it pinned, through
// the primary key, the hash index and the ordered index (point and range).
// It also proves the debug hooks fire on index access paths.
func TestPinnedReaderKeepsItsRowsOnEveryAccessPath(t *testing.T) {
	paths := []struct{ where, leaf string }{
		{"id = 5", "IndexScan T using primary key"},
		{"n = 5", "IndexScan T using t_n"},
		{"f = 5.0", "IndexScan T using t_f"},
		{"f >= 5 AND f < 6", "IndexRangeScan T using t_f >= 5 < 6"},
	}
	for _, p := range paths {
		e := New(Options{})
		mustScript(t, e, `
			CREATE TABLE T (id BIGINT PRIMARY KEY, n BIGINT, f DOUBLE, s VARCHAR);
			CREATE INDEX t_n ON T (n);
			CREATE ORDERED INDEX t_f ON T (f);
			INSERT INTO T VALUES (4, 4, 4.0, 'four'), (5, 5, 5.0, 'five'), (6, 6, 6.0, 'six');`)
		q := "SELECT id, s FROM T WHERE " + p.where
		if plan, err := e.Explain(q); err != nil || !strings.Contains(plan, p.leaf) {
			t.Fatalf("%s: plan %q (%v), want leaf %q", q, plan, err, p.leaf)
		}

		entered, release := make(chan struct{}), make(chan struct{})
		exec.DebugStallTable = "T"
		exec.DebugStall = func() {
			select {
			case entered <- struct{}{}:
				<-release
			case <-release: // later scans pass straight through
			}
		}
		type result struct {
			rows []string
			err  error
		}
		reader := make(chan result, 1)
		go func() {
			r, err := e.Execute(q)
			if err != nil {
				reader <- result{err: err}
				return
			}
			reader <- result{rows: sortedRows(r)}
		}()
		select {
		case <-entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the reader never reached DebugStall", q)
		}
		mustScript(t, e, `
			DELETE FROM T WHERE id = 5;
			UPDATE T SET id = 5, n = 5, f = 5.0, s = 'rekeyed' WHERE id = 6;
			INSERT INTO T VALUES (7, 5, 5.0, 'inserted');`)
		close(release)
		got := <-reader
		exec.DebugStallTable, exec.DebugStall = "", nil
		if want := []string{"[5 five]"}; got.err != nil || fmt.Sprint(got.rows) != fmt.Sprint(want) {
			t.Errorf("%s: pinned reader returned %v (%v), want %v", q, got.rows, got.err, want)
		}
		// A fresh reader sees the writer's table.
		want := "[[5 rekeyed] [7 inserted]]"
		if strings.HasPrefix(p.where, "id") {
			want = "[[5 rekeyed]]"
		}
		if fresh := sortedRows(mustExec(t, e, q)); fmt.Sprint(fresh) != want {
			t.Errorf("%s: fresh reader returned %v, want %s", q, fresh, want)
		}
	}
}

// TestPreparedPointUpdateAllocs holds the hot path of prepared point DML —
// select the access path, probe the primary key, update one row — to the
// allocation count it had when the primary key had a lookup path of its own:
// 23 per execution on this table at the commit before the merge (the
// issue's 31 was measured on a wider table). The row array's copy-on-write
// is one of them, whatever the table's size.
func TestPreparedPointUpdateAllocs(t *testing.T) {
	e := New(Options{})
	mustExec(t, e, `CREATE TABLE acct (id BIGINT PRIMARY KEY, bal BIGINT)`)
	bl, err := e.BeginBulk("acct", nil, 20000)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]types.Row, 20000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(0)}
	}
	if _, err := bl.Append(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := bl.Close(); err != nil {
		t.Fatal(err)
	}
	upd, err := e.PrepareDML(`UPDATE acct SET bal = bal + 1 WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	key := types.NewInt(777)
	n := testing.AllocsPerRun(200, func() {
		if r, err := upd.Exec(key); err != nil || r.Affected != 1 {
			t.Fatalf("point update: %v, %v", r, err)
		}
	})
	if n > 23 {
		t.Errorf("prepared UPDATE … WHERE pk = ? allocates %.0f times per execution, want <= 23", n)
	}
}
