package plan

import (
	"fmt"
	"testing"

	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
)

// TestChooseAccess pins the one index-selection rule over a list of WHERE
// shapes, and that a SELECT leaf and an UPDATE/DELETE target reach the same
// decision for each: same index, same bounds, same residual conjuncts.
// Friends has a primary key on fid, a hash index on a, an ordered index on
// w and nothing on b.
func TestChooseAccess(t *testing.T) {
	cat := fixture(t)
	friends, _ := cat.Table("Friends")
	if _, err := friends.CreateIndex("ix_a", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := friends.CreateIndex("ix_w", []int{3}, true); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		where    string
		access   string // the leaf's EXPLAIN line, less any filter
		residual int    // conjuncts left to the filter
	}{
		{"", "SeqScan Friends", 0},
		{"fid = 3", "IndexScan Friends using primary key", 0},
		{"3 = fid", "IndexScan Friends using primary key", 0},
		{"fid = ?", "IndexScan Friends using primary key", 0},
		{"Friends.fid = 3", "IndexScan Friends using primary key", 0},
		{"fid = 3 AND b >= 0", "IndexScan Friends using primary key", 1},
		{"b >= 0 AND fid = ?", "IndexScan Friends using primary key", 1},
		{"a = 1", "IndexScan Friends using ix_a", 0},
		{"a = 1 AND fid = 2", "IndexScan Friends using ix_a", 1}, // the first indexed equality
		{"b = 1 AND fid = 2", "IndexScan Friends using primary key", 1},
		{"w = 1.0", "IndexScan Friends using ix_w", 0}, // an ordered index serves a point
		{"w > 0 AND fid = 2", "IndexScan Friends using primary key", 1},
		{"w >= 1 AND w < 2", "IndexRangeScan Friends using ix_w >= 1 < 2", 0},
		{"w >= ? AND w < ?", "IndexRangeScan Friends using ix_w >= ?1 < ?2", 0},
		{"2 > w", "IndexRangeScan Friends using ix_w < 2", 0},
		{"w > 1 AND w > 2 AND b = 1", "IndexRangeScan Friends using ix_w > 1", 2}, // one bound per side
		{"b > 0 AND w <= 5", "IndexRangeScan Friends using ix_w <= 5", 1},
		{"fid > 1", "SeqScan Friends", 1}, // the primary key is not ordered
		{"a >= 1", "SeqScan Friends", 1},  // nor is a hash index
		{"b = 1", "SeqScan Friends", 1},
		{"fid = a", "SeqScan Friends", 1},
		{"fid = 1 OR fid = 2", "SeqScan Friends", 1},
		{"fid + 0 = 1", "SeqScan Friends", 1},
	}
	for _, tc := range cases {
		where := ""
		if tc.where != "" {
			where = " WHERE " + tc.where
		}
		leaf := findTableScan(planFor(t, cat, Options{}, "SELECT b FROM Friends"+where))
		sel, selRest := leaf.Access, len(expr.SplitConjuncts(leaf.Filter))
		if got := exec.NewTableScan(friends, "Friends", sel, nil).Explain(nil); got != tc.access || selRest != tc.residual {
			t.Errorf("SELECT%s: %q with %d residual, want %q with %d", where, got, selRest, tc.access, tc.residual)
		}
		for _, dml := range []string{"UPDATE Friends SET b = 0", "DELETE FROM Friends"} {
			stmt, err := sql.Parse(dml + where)
			if err != nil {
				t.Fatalf("parse %q: %v", dml+where, err)
			}
			var w expr.Expr
			switch s := stmt.(type) {
			case *sql.Update:
				w = s.Where
			case *sql.Delete:
				w = s.Where
			}
			acc, rest := ChooseAccess(friends, friends.Schema(), expr.SplitConjuncts(w))
			if describe(acc) != describe(sel) || len(rest) != selRest {
				t.Errorf("%s%s: %s with %d residual; SELECT chose %s with %d",
					dml, where, describe(acc), len(rest), describe(sel), selRest)
			}
		}
	}
}

func describe(a exec.Access) string {
	return fmt.Sprintf("%p %v(%v) %v(%v)", a.Index, a.Lo, a.LoInc, a.Hi, a.HiInc)
}

func findTableScan(op exec.Operator) *exec.TableScan {
	if ts, ok := op.(*exec.TableScan); ok {
		return ts
	}
	for _, c := range op.Children() {
		if ts := findTableScan(c); ts != nil {
			return ts
		}
	}
	return nil
}
