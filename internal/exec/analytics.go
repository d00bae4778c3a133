package exec

import (
	"fmt"
	"slices"
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
// topology version, or reads the result an earlier execution memoized on
// that version (graph.CSR.Memo), and streams it as an ordinary relation — one
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
	// executions, those the version's memo answered, and the iterations
	// (BFS levels for components) and component BFS direction split of
	// the results emitted.
	runs, memoHits, iters, topDown, bottomUp atomic.Int64
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
// executions, memo hits, iterations, and the components BFS direction
// split.
func (s *AnalyticsScan) Actuals() (runs, memoHits, iters, topDown, bottomUp int64) {
	return s.runs.Load(), s.memoHits.Load(), s.iters.Load(), s.topDown.Load(), s.bottomUp.Load()
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

// Open implements Operator: it takes the result from the version's memo or
// runs the kernel to completion (respecting the statement's cancellation
// signal), and returns an iterator over the result relation.
func (s *AnalyticsScan) Open(ctx *Context) (Iterator, error) {
	damping, prIters, lpIters := DefaultPageRankDamping, DefaultPageRankIters, DefaultLabelPropIters
	switch s.Fn {
	case AnalyticsPageRank:
		if len(s.Args) >= 1 {
			d, err := argFloat(ctx, s.Args[0], "PAGERANK damping")
			if err != nil {
				return nil, err
			}
			if !(d >= 0 && d < 1) { // NaN is in no range
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
	s.runs.Add(1)
	atomic.AddInt64(&ctx.AnalyticsRuns, 1)
	it := &analyticsIter{ctx: ctx, s: s, n: c.NumVertices(), env: expr.Env{Params: ctx.Params}}
	if s.Fn == AnalyticsDegree {
		// O(V) and not memoized: rows come straight from the pooled
		// scratch, which Close releases.
		it.a, it.hasScratch = c.NewAnalytics(), true
		it.outDeg, it.inDeg = it.a.Degrees()
		return it, nil
	}

	// The iterative functions read the version's memo first: the version
	// never changes, so a result computed on it once is its answer for
	// every later execution with the same arguments.
	var key graph.MemoKey
	switch s.Fn {
	case AnalyticsPageRank:
		key = graph.MemoKey{Fn: graph.MemoPageRank, Damping: damping, Iters: prIters}
	case AnalyticsComponents:
		key = graph.MemoKey{Fn: graph.MemoComponents}
	case AnalyticsLabelProp:
		key = graph.MemoKey{Fn: graph.MemoLabelProp, Iters: lpIters}
	}
	res := c.Memo(key)
	var err error
	if res != nil {
		s.memoHits.Add(1)
		atomic.AddInt64(&ctx.AnalyticsMemoHits, 1)
	} else if res, err = s.run(ctx, c, key, workers); err == nil {
		c.SetMemo(res)
	}
	s.iters.Add(int64(res.Iters))
	s.topDown.Add(int64(res.Stats.TopDown))
	s.bottomUp.Add(int64(res.Stats.BottomUp))
	atomic.AddInt64(&ctx.AnalyticsIters, int64(res.Iters))
	if err != nil {
		return nil, mapStopped(ctx, err)
	}
	it.res = res
	return it, nil
}

// run runs an iterative function's kernel over the version and returns
// its result copied out of the pooled scratch, which it releases. On an
// error the result carries only the iterations run.
func (s *AnalyticsScan) run(ctx *Context, c *graph.CSR, key graph.MemoKey, workers int) (*graph.AnalyticsResult, error) {
	a := c.NewAnalytics()
	defer a.Release()
	res := &graph.AnalyticsResult{Key: key}
	var err error
	switch s.Fn {
	case AnalyticsPageRank:
		res.Ranks, res.Iters, err = a.PageRank(ctx.Done(), workers, key.Damping, key.Iters, pageRankEps)
		atomic.AddInt64(&ctx.EdgesTraversed, int64(res.Iters)*int64(c.NumEdges()))
	case AnalyticsComponents:
		res.Ints, res.Stats, err = a.Components(ctx.Done(), workers)
		res.Iters = res.Stats.Levels
		atomic.AddInt64(&ctx.EdgesTraversed, 2*int64(c.NumEdges()))
	case AnalyticsLabelProp:
		res.Ints, res.Iters, err = a.LabelProp(ctx.Done(), workers, key.Iters)
		atomic.AddInt64(&ctx.EdgesTraversed, 2*int64(res.Iters)*int64(c.NumEdges()))
	}
	if err != nil {
		return res, err
	}
	res.IDs = a.VertexIDs()
	res.Ranks, res.Ints = slices.Clone(res.Ranks), slices.Clone(res.Ints)
	return res, nil
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

// analyticsRowsPerSlab is how many rows analyticsIter carves out of one
// allocation.
const analyticsRowsPerSlab = 256

// analyticsIter streams the result relation in ascending vertex-ID order
// (the kernels' result order).
type analyticsIter struct {
	ctx  *Context
	s    *AnalyticsScan
	i, n int
	env  expr.Env // the Filter's, reused per row

	res *graph.AnalyticsResult // the iterative functions' result

	// DEGREE_CENTRALITY's degrees, in the pooled scratch to release.
	a             graph.Analytics
	hasScratch    bool
	outDeg, inDeg []int64

	// slab is the unused tail of the current row allocation: each row is a
	// 3-index slice of it, so an append to one row never reaches the next.
	slab []types.Value
}

func (it *analyticsIter) Next() (types.Row, error) {
	width := it.s.schema.Len()
	for it.i < it.n {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		i := it.i
		it.i++
		if len(it.slab) < width {
			it.slab = make([]types.Value, analyticsRowsPerSlab*width)
		}
		row := types.Row(it.slab[:width:width])
		switch it.s.Fn {
		case AnalyticsPageRank:
			row[0], row[1] = types.NewInt(it.res.IDs[i]), types.NewFloat(it.res.Ranks[i])
		case AnalyticsDegree:
			row[0] = types.NewInt(it.a.VertexID(i))
			row[1], row[2] = types.NewInt(it.outDeg[i]), types.NewInt(it.inDeg[i])
		default:
			row[0], row[1] = types.NewInt(it.res.IDs[i]), types.NewInt(it.res.Ints[i])
		}
		if it.s.Filter != nil {
			it.env.Row = row
			ok, err := expr.EvalBool(it.s.Filter, &it.env)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue // the row's slab space is reused
			}
		}
		it.slab = it.slab[width:]
		it.ctx.RowsEmitted++
		return row, nil
	}
	return nil, nil
}

func (it *analyticsIter) Close() {
	if it.hasScratch {
		it.hasScratch = false
		it.outDeg, it.inDeg = nil, nil
		it.a.Release()
	}
}
