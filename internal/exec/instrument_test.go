package exec

import (
	"reflect"
	"strings"
	"testing"

	"grfusion/internal/expr"
)

// TestInstrumentCountsAndPreservesResults runs the same small plan plain
// and instrumented and requires identical output plus exact per-operator
// row counts.
func TestInstrumentCountsAndPreservesResults(t *testing.T) {
	tb := newTable(t, "t", 30)
	build := func() Operator {
		scan := NewTableScan(tb, tb, "t", Access{}, nil)
		pred := &expr.BinaryExpr{Op: expr.OpLt, L: col(t, scan.Schema(), "t", "id"), R: intLit(10)}
		return NewLimit(NewFilter(scan, pred), 5, 0)
	}

	plain := collect(t, build())

	root := Instrument(build())
	got, err := Collect(NewContext(0), root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("instrumented plan changed results:\nplain: %v\ninstr: %v", plain, got)
	}

	// Limit produced 5 rows; Filter produced 5 (Limit stopped pulling);
	// the scan fed the filter whatever it asked for.
	if root.Rows() != 5 {
		t.Errorf("Limit rows = %d, want 5", root.Rows())
	}
	filter := root.Children()[0].(*Instrumented)
	if filter.Rows() != 5 {
		t.Errorf("Filter rows = %d, want 5", filter.Rows())
	}
	scan := filter.Children()[0].(*Instrumented)
	if scan.Rows() != 5 {
		t.Errorf("SeqScan rows = %d, want 5", scan.Rows())
	}
	if root.NextCalls() == 0 || root.CumulativeNS() < 0 {
		t.Errorf("missing accounting: nexts=%d time=%d", root.NextCalls(), root.CumulativeNS())
	}

	// The annotated tree renders actuals at every level.
	text := Explain(root)
	for _, want := range []string{"Limit 5", "Filter", "SeqScan t", "actual rows=5"} {
		if !strings.Contains(text, want) {
			t.Errorf("annotated plan missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "actual rows=") != 3 {
		t.Errorf("want actuals on all 3 nodes:\n%s", text)
	}
}

// TestInstrumentDoesNotMutateOriginal verifies the shallow-copy rewrite:
// the source tree must still point at its own children afterwards.
func TestInstrumentDoesNotMutateOriginal(t *testing.T) {
	tb := newTable(t, "t", 3)
	scan := NewTableScan(tb, tb, "t", Access{}, nil)
	limit := NewLimit(scan, 2, 0)
	Instrument(limit)
	if limit.Child != Operator(scan) {
		t.Fatal("Instrument mutated the original plan's child pointer")
	}
	rows := collect(t, limit)
	if len(rows) != 2 {
		t.Fatalf("original plan broken after Instrument: %d rows", len(rows))
	}
}

// TestInstrumentJoinShape wraps both sides of a join.
func TestInstrumentJoinShape(t *testing.T) {
	l := newTable(t, "l", 4)
	r := newTable(t, "r", 4)
	ls, rs := NewTableScan(l, l, "l", Access{}, nil), NewTableScan(r, r, "r", Access{}, nil)
	join := NewHashJoin(ls, rs,
		[]expr.Expr{col(t, ls.Schema(), "l", "id")},
		[]expr.Expr{col(t, rs.Schema(), "r", "id")}, nil)
	root := Instrument(join)
	rows, err := Collect(NewContext(0), root)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("join rows = %d, want 4", len(rows))
	}
	if len(root.Children()) != 2 {
		t.Fatalf("join wrapper children = %d, want 2", len(root.Children()))
	}
	for _, c := range root.Children() {
		ic := c.(*Instrumented)
		if ic.Rows() != 4 {
			t.Errorf("join input rows = %d, want 4", ic.Rows())
		}
	}
}

func TestTopOperators(t *testing.T) {
	tb := newTable(t, "t", 50)
	scan := NewTableScan(tb, tb, "t", Access{}, nil)
	pred := &expr.BinaryExpr{Op: expr.OpGe, L: col(t, scan.Schema(), "t", "id"), R: intLit(0)}
	root := Instrument(NewDistinct(NewFilter(scan, pred)))
	if _, err := Collect(NewContext(0), root); err != nil {
		t.Fatal(err)
	}
	top := TopOperators(root, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(top))
	}
	if top[0].SelfNS < top[1].SelfNS {
		t.Fatalf("top operators not sorted by self time: %v", top)
	}
	all := TopOperators(root, 10)
	if len(all) != 3 {
		t.Fatalf("full walk = %d entries, want 3", len(all))
	}
}
