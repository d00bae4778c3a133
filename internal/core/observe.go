package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/metrics"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// This file is the engine half of the observability layer: statement
// classification and accounting into the internal/metrics registry, the
// slow-query log, the metrics snapshot behind SHOW METRICS / the wire
// METRICS command / the HTTP endpoint, and the EXPLAIN ANALYZE renderer.

// Metrics exposes the engine's observability registry for direct counter
// access (the server increments admission-shed counts through it).
func (e *Engine) Metrics() *metrics.Metrics { return &e.metrics }

// SlowQuery returns the slow-query-log threshold (zero = disabled).
func (e *Engine) SlowQuery() time.Duration {
	return time.Duration(e.slowQueryNS.Load())
}

// SetSlowQuery sets the slow-query-log threshold; zero or negative
// disables the log. Equivalent to SET SLOW_QUERY = <ms>. While armed,
// SELECT plans run through the instrumentation layer so the log can name
// the top operators by self time.
func (e *Engine) SetSlowQuery(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.slowQueryNS.Store(int64(d))
}

// stmtKind classifies a parsed statement for the statements-by-kind
// counters.
func stmtKind(stmt sql.Statement) int {
	switch stmt.(type) {
	case *sql.Select:
		return metrics.StmtSelect
	case *sql.Insert:
		return metrics.StmtInsert
	case *sql.Update:
		return metrics.StmtUpdate
	case *sql.Delete:
		return metrics.StmtDelete
	case *sql.Explain:
		return metrics.StmtExplain
	case *sql.Show:
		return metrics.StmtShow
	case *sql.Set:
		return metrics.StmtSet
	case *sql.CreateTable, *sql.CreateIndex, *sql.CreateGraphView,
		*sql.CreateMatView, *sql.DropTable, *sql.DropGraphView,
		*sql.DropMatView, *sql.TruncateTable:
		return metrics.StmtDDL
	default:
		return metrics.StmtOther
	}
}

// errClass maps a statement error to the errors-by-sentinel counters.
func errClass(err error) int {
	switch {
	case errors.Is(err, ErrTimeout):
		return metrics.ErrTimeout
	case errors.Is(err, ErrCanceled):
		return metrics.ErrCanceled
	case errors.Is(err, ErrMemLimit):
		return metrics.ErrMemLimit
	case errors.Is(err, ErrQueryPanic):
		return metrics.ErrPanic
	case errors.Is(err, ErrDegraded):
		return metrics.ErrDegraded
	default:
		return metrics.ErrOther
	}
}

// observeStatement is execStmt's deferred accounting hook: every statement
// lands in the by-kind counter and the latency histogram, failures land in
// the by-sentinel error counters, and statements over the slow-query
// threshold are counted and logged (with the top operators by self time
// when the plan ran instrumented).
func (e *Engine) observeStatement(kind int, text string, d time.Duration, err error, prof *exec.Instrumented) {
	e.metrics.CountStatement(kind, d)
	if err != nil {
		e.metrics.CountError(errClass(err))
	}
	th := e.slowQueryNS.Load()
	if th <= 0 || d.Nanoseconds() < th {
		return
	}
	e.metrics.SlowQueries.Inc()
	if text == "" {
		text = "<" + metrics.StmtKindName(kind) + " statement>"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "core: slow query (%v): %s", d.Round(time.Microsecond), text)
	if err != nil {
		fmt.Fprintf(&sb, " [error: %v]", err)
	}
	if prof != nil {
		for i, oc := range exec.TopOperators(prof, 3) {
			fmt.Fprintf(&sb, "\n  top[%d] %v rows=%d  %s",
				i+1, time.Duration(oc.SelfNS).Round(time.Microsecond), oc.Rows, oc.Line)
		}
	}
	log.Print(sb.String())
}

// observeAnalytics folds the analytics kernels one execution ran into the
// registry. The counts come from the per-execution context, not the plan's
// operators, so a cached prepared plan is counted once per execution; it
// runs even after errors, counting kernels that ran before the failure.
func (e *Engine) observeAnalytics(ec *exec.Context) {
	if runs := atomic.LoadInt64(&ec.AnalyticsRuns); runs > 0 {
		e.metrics.AnalyticsRuns.Add(runs)
		e.metrics.AnalyticsIters.Add(atomic.LoadInt64(&ec.AnalyticsIters))
		e.metrics.AnalyticsMemoHits.Add(atomic.LoadInt64(&ec.AnalyticsMemoHits))
	}
}

// viewStatsAt gathers the per-graph-view gauges for a metrics snapshot
// against a pinned version: topology sizes come from the version's bound
// topology (immutable), while the lifetime counters (maintenance ops, CSR
// builds and reads) are the view's atomics.
func (e *Engine) viewStatsAt(st *dbState) []metrics.GraphViewStats {
	var out []metrics.GraphViewStats
	for _, name := range st.cat.GraphViews() {
		gv, ok := st.cat.GraphView(name)
		if !ok {
			continue
		}
		g := st.GraphView(gv).Topo
		vs := metrics.GraphViewStats{
			Name:     name,
			Vertices: int64(g.NumVertices()),
			Edges:    int64(g.NumEdges()),
			MaintOps: gv.MaintOps(),
		}
		vs.CSRBuilds, vs.CSRBuildNS, vs.CSRHits, vs.CSRMisses, vs.CSRBytes = gv.CSRStats()
		vs.ColumnBuilds = gv.ColumnBuilds()
		out = append(out, vs)
	}
	return out
}

// MetricsSnapshot renders the full metrics state — engine counters,
// latency summary, and per-graph-view gauges — as sorted name/value
// pairs. It pins the current version like any reader, so it never waits
// behind writers.
func (e *Engine) MetricsSnapshot() []metrics.KV {
	st := e.pin()
	defer e.unpin(st)
	return e.metrics.Snapshot(e.viewStatsAt(st))
}

// runExplainAnalyze executes the planned SELECT through the
// instrumentation layer, discards its rows, and renders the annotated
// operator tree plus execution summary lines: totals, traversal counters,
// and for every PathScan the §6.3 statistics of the version it ran on —
// the fan-out the optimizer's BFS/DFS choice read.
// Callers hold a version pin (EXPLAIN is read-only; the plan was built
// against the pinned version, so running it lock-free is sound).
func (e *Engine) runExplainAnalyze(ctx context.Context, op exec.Operator) (*Result, error) {
	root := exec.Instrument(op)
	ec := e.execContext(ctx, nil)
	start := time.Now()
	rows, err := exec.Collect(ec, root)
	elapsed := time.Since(start)
	e.observeAnalytics(ec)
	if err != nil {
		return nil, err
	}

	res := &Result{Columns: []string{"plan"}}
	add := func(format string, args ...any) {
		res.Rows = append(res.Rows, types.Row{types.NewString(fmt.Sprintf(format, args...))})
	}
	for _, line := range strings.Split(strings.TrimRight(exec.Explain(root), "\n"), "\n") {
		add("%s", line)
	}
	add("")
	add("Execution: rows=%d time=%v", len(rows), elapsed.Round(time.Microsecond))
	add("Counters: edges_traversed=%d paths_emitted=%d",
		atomic.LoadInt64(&ec.EdgesTraversed), ec.PathsEmitted)
	addCSR := func(gv *catalog.GraphView) {
		builds, buildNS, hits, misses, bytes := gv.CSRStats()
		add("CSR[%s]: builds=%d build_time=%v hits=%d misses=%d bytes=%d",
			gv.Name, builds, time.Duration(buildNS).Round(time.Microsecond),
			hits, misses, bytes)
	}
	root.Walk(func(n *exec.Instrumented) {
		if as, ok := n.Op.(*exec.AnalyticsScan); ok {
			runs, hits, iters, td, bu := as.Actuals()
			memo := "miss"
			switch {
			case as.Fn == exec.AnalyticsDegree:
				memo = "none"
			case hits > 0:
				memo = "hit"
			}
			folded := ""
			if as.Fold != nil {
				folded = fmt.Sprintf(" folded=%d", as.Folded())
			}
			add("Analytics[%s.%s]: runs=%d iters=%d topdown_levels=%d bottomup_levels=%d memo=%s%s",
				as.At.GV.Name, as.Fn, runs, iters, td, bu, memo, folded)
			addCSR(as.At.GV)
			return
		}
		pj, ok := n.Op.(*exec.PathProbeJoin)
		if !ok {
			return
		}
		at := pj.Spec.At
		addCSR(at.GV)
		add("Stats[%s]: avg_fanout=%.2f vertices=%d edges=%d",
			at.GV.Name, at.Topo.AvgFanOut(), at.Topo.NumVertices(), at.Topo.NumEdges())
	})
	return res, nil
}
