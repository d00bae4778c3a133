package exec

import (
	"fmt"
	"strings"
	"sync/atomic"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// This file implements AnalyticsScan, the physical operator behind the
// whole-graph analytics table-valued functions over graph views:
//
//	SELECT * FROM GV.PAGERANK(0.85, 20) PR
//	SELECT * FROM GV.CONNECTED_COMPONENTS() CC
//	SELECT * FROM GV.LABEL_PROPAGATION(10) LP
//	SELECT * FROM GV.DEGREE_CENTRALITY() DC
//
// The operator is a leaf: it runs the kernel at Open over the view's bound
// topology version and streams the result as an ordinary relation — one
// row per vertex in ascending identifier order, an ID column plus the
// function's metric columns — so results join and filter against table
// attributes.

// AnalyticsFunc identifies one analytics table-valued function.
type AnalyticsFunc uint8

// The analytics functions.
const (
	AnalyticsPageRank AnalyticsFunc = iota
	AnalyticsComponents
	AnalyticsLabelProp
	AnalyticsDegree
)

func (f AnalyticsFunc) String() string {
	switch f {
	case AnalyticsPageRank:
		return "PAGERANK"
	case AnalyticsComponents:
		return "CONNECTED_COMPONENTS"
	case AnalyticsLabelProp:
		return "LABEL_PROPAGATION"
	case AnalyticsDegree:
		return "DEGREE_CENTRALITY"
	default:
		return fmt.Sprintf("AnalyticsFunc(%d)", uint8(f))
	}
}

// AnalyticsFuncByName resolves a function name (case-insensitive).
func AnalyticsFuncByName(name string) (AnalyticsFunc, bool) {
	switch strings.ToUpper(name) {
	case "PAGERANK":
		return AnalyticsPageRank, true
	case "CONNECTED_COMPONENTS":
		return AnalyticsComponents, true
	case "LABEL_PROPAGATION":
		return AnalyticsLabelProp, true
	case "DEGREE_CENTRALITY":
		return AnalyticsDegree, true
	default:
		return 0, false
	}
}

// Arity returns the smallest and largest argument count the function
// accepts: PAGERANK([damping [, iterations]]), LABEL_PROPAGATION([maxIters]),
// the others take none.
func (f AnalyticsFunc) Arity() (lo, hi int) {
	switch f {
	case AnalyticsPageRank:
		return 0, 2
	case AnalyticsLabelProp:
		return 0, 1
	default:
		return 0, 0
	}
}

// Default kernel parameters for arguments the statement omits.
const (
	DefaultPageRankDamping = 0.85
	DefaultPageRankIters   = 20
	DefaultLabelPropIters  = 20
	// pageRankEps is the fixed early-stop threshold of the SQL surface
	// (the L1 delta between iterations); the Go kernel API exposes it,
	// the SQL one pins it for reproducible iteration counts.
	pageRankEps = 1e-9
)

// AnalyticsSchema returns the unqualified output schema of a function. The
// first column is always ID (the vertex identifier), so results join
// naturally against the view's VERTEXES member and its source table.
func AnalyticsSchema(f AnalyticsFunc) *types.Schema {
	id := types.Column{Name: catalog.AttrID, Type: types.KindInt}
	switch f {
	case AnalyticsPageRank:
		return types.NewSchema(id, types.Column{Name: "rank", Type: types.KindFloat})
	case AnalyticsComponents:
		return types.NewSchema(id, types.Column{Name: "component", Type: types.KindInt})
	case AnalyticsLabelProp:
		return types.NewSchema(id, types.Column{Name: "label", Type: types.KindInt})
	default:
		return types.NewSchema(id,
			types.Column{Name: "out_degree", Type: types.KindInt},
			types.Column{Name: "in_degree", Type: types.KindInt})
	}
}

// AnalyticsScan runs one analytics function over a graph view and streams
// the result relation.
type AnalyticsScan struct {
	// At is the view version the kernel runs over.
	At     *catalog.GraphViewAt
	Alias  string
	Fn     AnalyticsFunc
	Args   []expr.Expr // constant arguments (literals or parameters)
	Filter expr.Expr

	schema *types.Schema

	// Actuals, surfaced by EXPLAIN ANALYZE and the metrics registry:
	// kernel runs, iterations (BFS levels for components), and the
	// direction split of the component BFS.
	runs, iters, topDown, bottomUp atomic.Int64
}

// NewAnalyticsScan creates the operator.
func NewAnalyticsScan(at *catalog.GraphViewAt, alias string, fn AnalyticsFunc,
	args []expr.Expr, filter expr.Expr) *AnalyticsScan {
	return &AnalyticsScan{At: at, Alias: alias, Fn: fn, Args: args, Filter: filter,
		schema: AnalyticsSchema(fn).WithQualifier(alias)}
}

// Schema implements Operator.
func (s *AnalyticsScan) Schema() *types.Schema { return s.schema }

// Children implements Operator.
func (s *AnalyticsScan) Children() []Operator { return nil }

// Explain implements Operator.
func (s *AnalyticsScan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "AnalyticsScan %s.%s(", s.At.GV.Name, s.Fn)
	for i, a := range s.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s", a)
	}
	sb.WriteString(")")
	if s.Filter != nil {
		fmt.Fprintf(&sb, " filter=%s", s.Filter)
	}
	return sb.String()
}

// Actuals reports the accumulated per-run counters for EXPLAIN ANALYZE:
// kernel runs, iterations, and the components BFS direction split.
func (s *AnalyticsScan) Actuals() (runs, iters, topDown, bottomUp int64) {
	return s.runs.Load(), s.iters.Load(), s.topDown.Load(), s.bottomUp.Load()
}

// argFloat evaluates a constant argument to a float.
func argFloat(ctx *Context, e expr.Expr, what string) (float64, error) {
	v, err := expr.Eval(e, &expr.Env{Params: ctx.Params})
	if err != nil {
		return 0, fmt.Errorf("%s: %v", what, err)
	}
	switch v.Kind {
	case types.KindInt:
		return float64(v.I), nil
	case types.KindFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("%s must be numeric, got %s", what, v)
	}
}

// argInt evaluates a constant argument to an int.
func argInt(ctx *Context, e expr.Expr, what string) (int, error) {
	v, err := expr.Eval(e, &expr.Env{Params: ctx.Params})
	if err != nil {
		return 0, fmt.Errorf("%s: %v", what, err)
	}
	if v.Kind != types.KindInt {
		return 0, fmt.Errorf("%s must be an integer, got %s", what, v)
	}
	return int(v.I), nil
}

// Open implements Operator: it runs the kernel to completion (respecting
// the statement's cancellation signal) and returns an iterator over the
// result relation.
func (s *AnalyticsScan) Open(ctx *Context) (Iterator, error) {
	damping, prIters, lpIters := DefaultPageRankDamping, DefaultPageRankIters, DefaultLabelPropIters
	switch s.Fn {
	case AnalyticsPageRank:
		if len(s.Args) >= 1 {
			d, err := argFloat(ctx, s.Args[0], "PAGERANK damping")
			if err != nil {
				return nil, err
			}
			if d < 0 || d >= 1 {
				return nil, fmt.Errorf("PAGERANK damping must be in [0, 1), got %v", d)
			}
			damping = d
		}
		if len(s.Args) >= 2 {
			n, err := argInt(ctx, s.Args[1], "PAGERANK iterations")
			if err != nil {
				return nil, err
			}
			if n < 1 || n > 100000 {
				return nil, fmt.Errorf("PAGERANK iterations must be in [1, 100000], got %d", n)
			}
			prIters = n
		}
	case AnalyticsLabelProp:
		if len(s.Args) >= 1 {
			n, err := argInt(ctx, s.Args[0], "LABEL_PROPAGATION maxIters")
			if err != nil {
				return nil, err
			}
			if n < 1 || n > 100000 {
				return nil, fmt.Errorf("LABEL_PROPAGATION maxIters must be in [1, 100000], got %d", n)
			}
			lpIters = n
		}
	}
	workers := ctx.Workers
	if workers < 1 {
		workers = 1
	}

	// Read the bound topology version at execution time — same pinning
	// discipline as PathScan.
	c := s.At.CSR()
	it := &analyticsIter{ctx: ctx, s: s, csr: c, a: c.NewAnalytics(), hasScratch: true}
	s.runs.Add(1)
	atomic.AddInt64(&ctx.AnalyticsRuns, 1)
	var iters int // kernel iterations (BFS levels for components)
	var err error
	switch s.Fn {
	case AnalyticsPageRank:
		it.ranks, iters, err = it.a.PageRank(ctx.Done(), workers, damping, prIters, pageRankEps)
		atomic.AddInt64(&ctx.EdgesTraversed, int64(iters)*int64(c.NumEdges()))
	case AnalyticsComponents:
		var stats graph.ComponentsStats
		it.ints, stats, err = it.a.Components(ctx.Done(), workers)
		iters = stats.Levels
		s.topDown.Add(int64(stats.TopDown))
		s.bottomUp.Add(int64(stats.BottomUp))
		atomic.AddInt64(&ctx.EdgesTraversed, 2*int64(c.NumEdges()))
	case AnalyticsLabelProp:
		it.ints, iters, err = it.a.LabelProp(ctx.Done(), workers, lpIters)
		atomic.AddInt64(&ctx.EdgesTraversed, 2*int64(iters)*int64(c.NumEdges()))
	case AnalyticsDegree:
		it.ints, it.ints2 = it.a.Degrees()
	}
	s.iters.Add(int64(iters))
	atomic.AddInt64(&ctx.AnalyticsIters, int64(iters))
	if err != nil {
		it.Close()
		return nil, mapStopped(ctx, err)
	}
	return it, nil
}

// mapStopped converts a kernel's ErrStopped into the context's typed
// cancellation cause (timeout or cancel), the pathscan idiom.
func mapStopped(ctx *Context, err error) error {
	if err == graph.ErrStopped {
		if cerr := ctx.CheckCancel(); cerr != nil {
			return cerr
		}
	}
	return err
}

// analyticsIter streams the result relation in ascending vertex-ID order
// (the kernels' result order).
type analyticsIter struct {
	ctx *Context
	s   *AnalyticsScan
	i   int

	// Dense kernel outputs plus the pooled scratch to release.
	csr        *graph.CSR
	a          graph.Analytics
	hasScratch bool
	ranks      []float64
	ints       []int64
	ints2      []int64
}

func (it *analyticsIter) Next() (types.Row, error) {
	for it.i < it.csr.NumVertices() {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		i := it.i
		it.i++
		id := types.NewInt(it.a.VertexID(i))
		var row types.Row
		switch it.s.Fn {
		case AnalyticsPageRank:
			row = types.Row{id, types.NewFloat(it.ranks[i])}
		case AnalyticsDegree:
			row = types.Row{id, types.NewInt(it.ints[i]), types.NewInt(it.ints2[i])}
		default:
			row = types.Row{id, types.NewInt(it.ints[i])}
		}
		if it.s.Filter != nil {
			ok, err := expr.EvalBool(it.s.Filter, &expr.Env{Row: row, Params: it.ctx.Params})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		it.ctx.RowsEmitted++
		return row, nil
	}
	return nil, nil
}

func (it *analyticsIter) Close() {
	if it.hasScratch {
		it.hasScratch = false
		it.ranks, it.ints, it.ints2 = nil, nil, nil
		it.a.Release()
	}
}
