package plan

import (
	"strings"
	"testing"

	"grfusion/internal/exec"
)

func TestRangeScanChosen(t *testing.T) {
	cat := fixture(t)
	users, _ := cat.Table("Users")
	if _, err := users.CreateIndex("ord_uid", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	// Two-sided range.
	op := planFor(t, cat, Options{}, "SELECT name FROM Users WHERE uid >= 2 AND uid < 4")
	plan := exec.Explain(nil, op)
	if !strings.Contains(plan, "IndexRangeScan") {
		t.Fatalf("range scan not chosen:\n%s", plan)
	}
	rows, err := exec.Collect(exec.NewContext(0), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // uids 2 and 3
		t.Fatalf("range rows: %d", len(rows))
	}
	// One-sided range, flipped operand order.
	op = planFor(t, cat, Options{}, "SELECT name FROM Users WHERE 3 < uid")
	if !strings.Contains(exec.Explain(nil, op), "IndexRangeScan") {
		t.Fatalf("flipped range not chosen:\n%s", exec.Explain(nil, op))
	}
	rows, err = exec.Collect(exec.NewContext(0), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // uids 4 and 5
		t.Fatalf("flipped range rows: %d", len(rows))
	}
	// Extra predicates on unindexed columns stay as residual filters and
	// results remain exact.
	op = planFor(t, cat, Options{}, "SELECT name FROM Users WHERE uid > 1 AND uid <= 4 AND name = 'u'")
	plan = exec.Explain(nil, op)
	if !strings.Contains(plan, "IndexRangeScan") || !strings.Contains(plan, "name") {
		t.Fatalf("residual lost:\n%s", plan)
	}
	rows, err = exec.Collect(exec.NewContext(0), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("range+filter rows: %d", len(rows))
	}
}

func TestRangeScanNotChosenWithoutOrderedIndex(t *testing.T) {
	cat := fixture(t) // only a hash index on job exists
	op := planFor(t, cat, Options{}, "SELECT name FROM Users WHERE uid >= 2")
	if strings.Contains(exec.Explain(nil, op), "IndexRangeScan") {
		t.Fatalf("range scan chosen without ordered index:\n%s", exec.Explain(nil, op))
	}
}

func TestEqualityBeatsRange(t *testing.T) {
	cat := fixture(t)
	users, _ := cat.Table("Users")
	if _, err := users.CreateIndex("ord_uid", []int{0}, true); err != nil {
		t.Fatal(err)
	}
	// A point predicate should use the (ordered) index as a point lookup,
	// not a range scan.
	op := planFor(t, cat, Options{}, "SELECT name FROM Users WHERE uid = 3 AND uid > 1")
	plan := exec.Explain(nil, op)
	if !strings.Contains(plan, "IndexScan") || strings.Contains(plan, "IndexRangeScan") {
		t.Fatalf("point lookup not preferred:\n%s", plan)
	}
}
