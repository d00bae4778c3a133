package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// denseCyclicFixture builds a complete digraph on n vertices: all-paths
// enumeration over it is factorial, so any uncancelled traversal would run
// effectively forever. This is the workload the cancellation machinery
// must cut short.
func denseCyclicFixture(t *testing.T, n int) *catalog.GraphView {
	t.Helper()
	vt, _ := storage.NewTable("v", types.NewSchema(
		types.Column{Qualifier: "v", Name: "vid", Type: types.KindInt},
	), []int{0})
	et, _ := storage.NewTable("e", types.NewSchema(
		types.Column{Qualifier: "e", Name: "eid", Type: types.KindInt},
		types.Column{Qualifier: "e", Name: "src", Type: types.KindInt},
		types.Column{Qualifier: "e", Name: "dst", Type: types.KindInt},
	), []int{0})
	for i := int64(1); i <= int64(n); i++ {
		vt.Insert(types.Row{types.NewInt(i)})
	}
	eid := int64(0)
	for a := int64(1); a <= int64(n); a++ {
		for b := int64(1); b <= int64(n); b++ {
			if a == b {
				continue
			}
			eid++
			et.Insert(types.Row{types.NewInt(eid), types.NewInt(a), types.NewInt(b)})
		}
	}
	gv, err := catalog.NewGraphView("K", true, vt, et,
		[]catalog.AttrMap{{Name: "ID", Source: "vid"}},
		[]catalog.AttrMap{{Name: "ID", Source: "eid"}, {Name: "FROM", Source: "src"},
			{Name: "TO", Source: "dst"}})
	if err != nil {
		t.Fatal(err)
	}
	return gv
}

// allPathsSpec enumerates every simple path of the graph — an unbounded
// amount of work on a dense cyclic fixture.
func allPathsSpec(gv *catalog.GraphView, parallel bool) PathScanSpec {
	return PathScanSpec{
		View: gv, Alias: "P", Phys: PhysDFS, Policy: graph.VisitPerPath,
		MinLen: 1, KPaths: 1, Parallel: parallel,
	}
}

// runCanceled drives the all-paths scan under ctx and expects the typed
// error want; it returns the executor context for counter inspection.
func runCanceled(t *testing.T, stdctx context.Context, workers int, want error) *Context {
	t.Helper()
	gv := denseCyclicFixture(t, 10)
	ec := NewContext(0)
	ec.Workers = workers
	ec.Bind(stdctx)
	op := NewPathProbeJoin(Singleton{}, allPathsSpec(gv, workers > 1), nil)
	start := time.Now()
	_, err := Collect(ec, op)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v; traversal effectively uncancelled", elapsed)
	}
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	return ec
}

// assertCountersQuiesced verifies no traversal work continues after the
// statement returned: the edge counter must not grow once Collect is done
// (all kernels and workers have exited, not been left running detached).
func assertCountersQuiesced(t *testing.T, ec *Context) {
	t.Helper()
	before := atomic.LoadInt64(&ec.EdgesTraversed)
	time.Sleep(50 * time.Millisecond)
	after := atomic.LoadInt64(&ec.EdgesTraversed)
	if after != before {
		t.Fatalf("EdgesTraversed still growing after cancellation: %d -> %d", before, after)
	}
	if before == 0 {
		t.Fatal("traversal did no work before the deadline; fixture too small to prove cancellation")
	}
}

func TestDeadlineStopsSequentialTraversal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ec := runCanceled(t, ctx, 1, ErrTimeout)
	assertCountersQuiesced(t, ec)
}

func TestDeadlineStopsParallelTraversal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ec := runCanceled(t, ctx, 4, ErrTimeout)
	assertCountersQuiesced(t, ec)
}

func TestExplicitCancelIsTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	ec := runCanceled(t, ctx, 1, ErrCanceled)
	assertCountersQuiesced(t, ec)
}

func TestCancelStopsShortestPathScan(t *testing.T) {
	// K12: ~e*10! simple paths between any two vertices — Yen-style
	// enumeration cannot finish inside the deadline.
	gv := denseCyclicFixture(t, 12)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	ec := NewContext(0)
	ec.Bind(ctx)
	// K-shortest simple paths over a dense cyclic graph with a large K:
	// Yen-style enumeration explodes without cancellation.
	spec := PathScanSpec{
		View: gv, Alias: "P", Phys: PhysSP, MinLen: 1, WeightAttr: "ID", Weight: attrRef(t, gv, expr.ElemEdges, "ID"),
		KPaths: 1 << 20, StartExpr: intLit(1), EndExpr: intLit(2),
	}
	_, err := Collect(ec, NewPathProbeJoin(Singleton{}, spec, nil))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestBindNilAndBackgroundContextsAreFree(t *testing.T) {
	ec := NewContext(0)
	ec.Bind(nil)
	if ec.Done() != nil || ec.CheckCancel() != nil {
		t.Fatal("nil bind must be a no-op")
	}
	// A context that can never fire (no deadline, no cancel) is skipped.
	ec.Bind(context.Background())
	if ec.Done() != nil {
		t.Fatal("background bind must be a no-op")
	}
	gv := denseCyclicFixture(t, 4)
	rows, err := Collect(ec, NewPathProbeJoin(Singleton{}, PathScanSpec{
		View: gv, Alias: "P", Phys: PhysBFS, MinLen: 1, MaxLen: 2, KPaths: 1,
		StartExpr: intLit(1),
	}, nil))
	if err != nil || len(rows) == 0 {
		t.Fatalf("unbound context broke execution: %v (%d rows)", err, len(rows))
	}
}

func TestCancelAbortsRelationalPipelines(t *testing.T) {
	// A pre-canceled context aborts scans, joins, sorts, and aggregates at
	// their first cooperative check instead of doing the work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := newTable(t, "a", 64)
	b := newTable(t, "b", 64)
	sa, sb := NewTableScan(a, "a", Access{}, nil), NewTableScan(b, "b", Access{}, nil)
	for name, op := range map[string]Operator{
		"seqscan": sa,
		"nlj":     NewNestedLoopJoin(sa, sb, nil),
		"sort":    NewSort(sa, []SortKey{{E: col(t, sa.Schema(), "a", "id")}}),
		"agg": NewHashAggregate(sa, nil, []AggSpec{{Name: "COUNT"}},
			types.NewSchema(types.Column{Name: "n", Type: types.KindInt})),
		"materialize": NewMaterialize(sa),
	} {
		ec := NewContext(0)
		ec.Bind(ctx)
		if _, err := Collect(ec, op); !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if used := ec.MemUsed(); used != 0 {
			t.Errorf("%s: leaked %d bytes of charged memory on cancel", name, used)
		}
	}
}
