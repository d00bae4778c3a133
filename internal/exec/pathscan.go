package exec

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// Phys selects the physical traversal operator a logical PathScan maps to
// (§5.1.2, §6.3).
type Phys uint8

// Physical path operators.
const (
	PhysDFS Phys = iota // DFScan
	PhysBFS             // BFScan
	PhysSP              // SPScan (Dijkstra / k-shortest simple paths)
)

func (p Phys) String() string {
	switch p {
	case PhysDFS:
		return "DFScan"
	case PhysBFS:
		return "BFScan"
	case PhysSP:
		return "SPScan"
	default:
		// An unknown value is a bug somewhere upstream; naming it SPScan
		// would hide that from EXPLAIN, so print the raw value instead.
		return fmt.Sprintf("Phys(%d)", uint8(p))
	}
}

// ElemFilter is one pushed-down per-position predicate over the path's
// edges or vertexes (§6.2), e.g. PS.Edges[0..*].StartDate > '2000-01-01'.
// The non-path side (Other / List) is bound to the OUTER schema and
// evaluated once per probe.
type ElemFilter struct {
	Elem expr.ElemKind
	Rng  expr.Rng
	Attr string       // as written, for EXPLAIN
	Ref  expr.AttrRef // Attr, resolved at plan time

	// Comparison form: elem Op Other (or Other Op elem when Flipped).
	Op      expr.BinOp
	Flipped bool
	Other   expr.Expr

	// IN form: elem [NOT] IN List. Used when IsIn is set.
	IsIn  bool
	InNeg bool
	List  []expr.Expr
}

func (f *ElemFilter) contains(pos int) bool {
	switch {
	case f.Rng.All:
		return true
	case f.Rng.Wildcard:
		return pos >= f.Rng.Start
	default:
		return pos >= f.Rng.Start && pos <= f.Rng.End
	}
}

// String renders the filter exactly as EXPLAIN shows it, using the same
// subscript convention as expr.PathElemAttr: [*] for an unsubscripted
// range, [i..*] for a wildcard, [i] for a single position, [i..j] for a
// bounded range. Flipped comparisons keep their original orientation
// (Other Op elem), and IN lists render their members.
func (f *ElemFilter) String() string {
	elem := "Edges"
	if f.Elem == expr.ElemVertexes {
		elem = "Vertexes"
	}
	var sub string
	switch {
	case f.Rng.All:
		sub = "[*]"
	case f.Rng.Wildcard:
		sub = fmt.Sprintf("[%d..*]", f.Rng.Start)
	case f.Rng.Single():
		sub = fmt.Sprintf("[%d]", f.Rng.Start)
	default:
		sub = fmt.Sprintf("[%d..%d]", f.Rng.Start, f.Rng.End)
	}
	ref := fmt.Sprintf("%s%s.%s", elem, sub, f.Attr)
	if f.IsIn {
		items := make([]string, len(f.List))
		for i, e := range f.List {
			items[i] = e.String()
		}
		op := "IN"
		if f.InNeg {
			op = "NOT IN"
		}
		return fmt.Sprintf("%s %s (%s)", ref, op, strings.Join(items, ", "))
	}
	if f.Flipped {
		return fmt.Sprintf("%s %s %s", f.Other, f.Op, ref)
	}
	return fmt.Sprintf("%s %s %s", ref, f.Op, f.Other)
}

// AggBound is a pushed-down monotone aggregate bound (§6.2), e.g.
// SUM(PS.Edges.Cost) < 10: traversal prunes any partial path whose
// accumulated value already violates the bound, provided every contribution
// seen so far is non-negative (otherwise pruning would be unsound and the
// bound is left to the residual filter above the scan).
type AggBound struct {
	Agg  string // SUM or COUNT
	Elem expr.ElemKind
	Ref  expr.AttrRef // the summed attribute; unused by COUNT
	Op   expr.BinOp
	// Bound is evaluated against the outer row once per probe.
	Bound expr.Expr
}

// PathScanSpec is the optimizer's full description of one PathScan.
type PathScanSpec struct {
	// At is the view version every traversal and tuple dereference reads
	// (topology instance + source-table row views).
	At    *catalog.GraphViewAt
	Alias string

	Phys   Phys
	Policy graph.VisitPolicy
	// CycleClose allows the path to close back onto its start vertex and
	// binds the traversal target to the start (triangle-style patterns).
	CycleClose bool

	MinLen, MaxLen int

	// StartExpr yields the start vertex id; nil starts from every vertex
	// (§5.1.2). EndExpr, when set, binds the traversal target. Both are
	// bound to the OUTER schema.
	StartExpr, EndExpr expr.Expr

	// Parallel marks the scan safe to fan across the executor's traversal
	// worker pool (set by the planner for multi-source scans). It only
	// takes effect when Context.Workers > 1; results are merged in source
	// order either way, so the knob never changes query output.
	Parallel bool

	// WeightAttr is the SPScan weight attribute as written and Weight its
	// resolved reference; KPaths is the number of shortest simple paths to
	// enumerate per (start, target) pair.
	WeightAttr string
	Weight     expr.AttrRef
	KPaths     int
	// TwoSided runs the scan as a search from both ends: an SPScan
	// through graph.NewCSRShortestPair, a BFScan through
	// graph.NewCSRReach. The planner sets it for a k=1 SPScan or a
	// visit-once BFScan with both endpoints bound and nothing else that
	// reads the path on the way: no cycle closure, no pushed filter or
	// aggregate bound, no length bound, no residual predicate over the
	// path. An SPScan on a binding whose weights are not all vouched for
	// (catalog.GraphViewAt.WeightsVouched) runs the one-sided kernel
	// instead, so answers and errors stay the same.
	TwoSided bool

	EdgeFilters   []ElemFilter
	VertexFilters []ElemFilter
	AggBounds     []AggBound
}

// PathColumn returns the schema column a PathScan contributes.
func PathColumn(alias string) types.Column {
	return types.Column{Qualifier: alias, Name: catalog.PathColumn, Type: types.KindPath}
}

// PathProbeJoin drives a PathScan from a relational outer input: every
// outer tuple probes the traversal operator with its start (and target)
// vertex bindings, exactly the QEP shape of Figure 6 in the paper. With a
// Singleton outer it degenerates to a standalone path scan.
type PathProbeJoin struct {
	Outer Operator
	Spec  PathScanSpec
	// Residual is an optional path predicate (bound to the output schema)
	// that could not be pushed into the traversal.
	Residual expr.Expr

	schema *types.Schema
	// actuals, set only on an instrumented copy (Instrument), counts the
	// probes that copy ran for EXPLAIN ANALYZE.
	actuals *pathActuals
}

// pathActuals are a PathScan's EXPLAIN ANALYZE counters: the traversals
// it started, one per start vertex of each probe, those that ran a
// two-sided kernel, and those whose pushed filters ran over typed columns.
type pathActuals struct {
	probes, twoSided, typed atomic.Int64
}

// Actuals reports the probes an instrumented PathScan ran, how many of
// them ran a two-sided kernel and how many tested pushed filters on typed
// columns; all are 0 on a plan not instrumented.
func (p *PathProbeJoin) Actuals() (probes, twoSided, typed int64) {
	if p.actuals == nil {
		return 0, 0, 0
	}
	return p.actuals.probes.Load(), p.actuals.twoSided.Load(), p.actuals.typed.Load()
}

// NewPathProbeJoin creates the probe join; the output schema is the outer
// schema plus the path column.
func NewPathProbeJoin(outer Operator, spec PathScanSpec, residual expr.Expr) *PathProbeJoin {
	s := outer.Schema().Concat(types.NewSchema(PathColumn(spec.Alias)))
	return &PathProbeJoin{Outer: outer, Spec: spec, Residual: residual, schema: s}
}

// Schema implements Operator.
func (p *PathProbeJoin) Schema() *types.Schema { return p.schema }

// Explain implements Operator.
func (p *PathProbeJoin) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "PathScan[%s] %s", p.Spec.Phys, p.Spec.At.GV.Name)
	fmt.Fprintf(&sb, " len=[%d,%d]", p.Spec.MinLen, p.Spec.MaxLen)
	if p.Spec.StartExpr != nil {
		fmt.Fprintf(&sb, " start=%s", p.Spec.StartExpr)
	}
	if p.Spec.EndExpr != nil {
		fmt.Fprintf(&sb, " end=%s", p.Spec.EndExpr)
	}
	if p.Spec.CycleClose {
		sb.WriteString(" cycle")
	}
	if p.Spec.Policy == graph.VisitPerPath {
		sb.WriteString(" allpaths")
	}
	if n := len(p.Spec.EdgeFilters) + len(p.Spec.VertexFilters); n > 0 {
		parts := make([]string, 0, n)
		for i := range p.Spec.EdgeFilters {
			parts = append(parts, p.Spec.EdgeFilters[i].String())
		}
		for i := range p.Spec.VertexFilters {
			parts = append(parts, p.Spec.VertexFilters[i].String())
		}
		fmt.Fprintf(&sb, " pushed=%d (%s)", n, strings.Join(parts, " AND "))
	}
	if len(p.Spec.AggBounds) > 0 {
		fmt.Fprintf(&sb, " aggbounds=%d", len(p.Spec.AggBounds))
	}
	switch {
	case p.Spec.Phys == PhysSP:
		sides := 1
		if p.Spec.TwoSided {
			sides = 2
		}
		fmt.Fprintf(&sb, " weight=%s k=%d sides=%d", p.Spec.WeightAttr, p.Spec.KPaths, sides)
	case p.Spec.TwoSided:
		sb.WriteString(" sides=2")
	}
	if p.Spec.Parallel {
		sb.WriteString(" parallel")
	}
	if p.Residual != nil {
		fmt.Fprintf(&sb, " residual=%s", p.Residual)
	}
	return sb.String()
}

// Children implements Operator.
func (p *PathProbeJoin) Children() []Operator { return []Operator{p.Outer} }

// Open implements Operator.
func (p *PathProbeJoin) Open(ctx *Context) (Iterator, error) {
	outer, err := p.Outer.Open(ctx)
	if err != nil {
		return nil, err
	}
	// Every kernel of this execution traverses the bound version; a pinned
	// reader sees exactly it even while writers append to the view's delta.
	twoSided := p.Spec.TwoSided && (p.Spec.Phys != PhysSP || p.Spec.At.WeightsVouched(p.Spec.Weight))
	return &pathProbeIter{ctx: ctx, p: p, outer: outer, at: p.Spec.At, csr: p.Spec.At.CSR(),
		twoSided: twoSided}, nil
}

type pathProbeIter struct {
	ctx   *Context
	p     *PathProbeJoin
	outer Iterator

	// at is Spec.At, the version binding every topology walk and tuple
	// dereference resolves against.
	at *catalog.GraphViewAt

	// csr is the topology version (at.Topo) every kernel traverses.
	csr *graph.CSR
	// twoSided runs each probe with the two-sided kernel: the plan chose
	// it and, for an SPScan, the binding vouches for every weight.
	twoSided bool

	outerRow types.Row
	starts   []*graph.Vertex
	si       int
	target   *graph.Vertex
	consts   probeConsts
	run      *probeRun
}

// probeRun is one live traversal: the kernel iterator plus the mutable
// state its filter closures write (evaluation errors, the edge counter).
// Isolating that state per run is what makes the parallel path sound —
// every worker owns exactly one run at a time, while the enclosing
// pathProbeIter only holds state that is read-only for the probe's
// duration (spec, resolved references, bound constants).
type probeRun struct {
	ctx     *Context
	iter    graph.PathIterator
	evalErr error        // set by filter/weight closures
	spErr   func() error // kernel error surface (SPScan, two-sided BFScan, parallel merge)
	edges   int64        // run-local EdgesTraversed, counted by the kernel
	msi     *graph.MultiSourceIter
	// at is the binding the run traverses; asked counts the elements its
	// filter and weight closures answered, credited to at toward its
	// columns (catalog.GraphViewAt.Column).
	at    *catalog.GraphViewAt
	asked int64
}

// err surfaces whichever error the run hit first.
func (r *probeRun) err() error {
	if r.evalErr != nil {
		return r.evalErr
	}
	if r.spErr != nil {
		return r.spErr()
	}
	return nil
}

// finish flushes the run's counters and, for a parallel run, waits for
// every worker to exit — the caller may release the engine's shared lock
// (or rebind the probe state workers read) only after this returns. The
// counter flush is atomic because parallel workers finish concurrently.
// A CSR kernel's pooled scratch is returned here, so even a traversal a
// LIMIT stopped mid-flight recycles its buffers (read any kernel error
// via err() before calling finish).
func (r *probeRun) finish() {
	if r.msi != nil {
		r.msi.Close()
		r.msi = nil
	}
	if rel, ok := r.iter.(interface{ Release() }); ok {
		rel.Release()
	}
	if r.edges != 0 {
		atomic.AddInt64(&r.ctx.EdgesTraversed, r.edges)
		r.edges = 0
	}
	if r.asked != 0 {
		r.at.Credit(r.asked)
		r.asked = 0
	}
}

// probeConsts holds the per-probe state of the pushed filters and
// aggregate bounds. bindConsts rebuilds it in place for each outer row,
// after every run of the previous probe has finished.
type probeConsts struct {
	edge, vert boundFilters
	boundVals  []types.Value
}

// boundFilters is one filter list's per-probe state: each filter's
// constant or IN list evaluated against the outer row, the filter
// compiled against it (compilePred), and whether any compiled filter has
// a column, which decides whether the kernels get preds.
type boundFilters struct {
	vals  []filterVals
	preds []graph.Pred
	typed bool
}

// filterVals is one filter's evaluated constant (other) or IN list.
type filterVals struct {
	other types.Value
	list  []types.Value
}

func (it *pathProbeIter) Next() (types.Row, error) {
	for {
		// Cancellation fires here even when the kernels below halted
		// silently: a stopped kernel looks exhausted, and this check turns
		// that into the typed lifecycle error instead of a partial result.
		if err := it.ctx.CheckCancel(); err != nil {
			if it.run != nil {
				it.run.finish()
				it.run = nil
			}
			return nil, err
		}
		if it.run != nil {
			path := it.run.iter.Next()
			if err := it.run.evalErr; err != nil {
				return nil, err
			}
			if path != nil {
				it.ctx.PathsEmitted++
				row := make(types.Row, 0, len(it.outerRow)+1)
				row = append(row, it.outerRow...)
				row = append(row, types.NewRef(types.KindPath, path))
				if it.p.Residual != nil {
					ok, err := expr.EvalBool(it.p.Residual, &expr.Env{Row: row, Params: it.ctx.Params})
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
				}
				return row, nil
			}
			err := it.run.err()
			it.run.finish()
			it.run = nil
			if errors.Is(err, graph.ErrStopped) {
				// The parallel merge halted on the cancellation signal;
				// report the typed cause instead of the kernel sentinel.
				if cerr := it.ctx.CheckCancel(); cerr != nil {
					err = cerr
				}
			}
			if err == nil {
				// Kernels halt silently when the cancellation signal fires:
				// a stopped kernel is indistinguishable from an exhausted
				// one. Re-check here so a cancelled traversal can never
				// masquerade as a complete (but truncated) result.
				err = it.ctx.CheckCancel()
			}
			if err != nil {
				return nil, err
			}
		}
		if it.si < len(it.starts) {
			if it.si == 0 && it.parallelEligible() {
				it.openParallel()
			} else {
				start := it.starts[it.si]
				it.si++
				it.run = it.newRun(start)
			}
			continue
		}
		// Advance to the next outer row. Any previous run has finished by
		// now, so rebinding the probe state below cannot race a worker.
		row, err := it.outer.Next()
		if err != nil || row == nil {
			return nil, err
		}
		it.outerRow = row
		if err := it.bindProbe(); err != nil {
			return nil, err
		}
	}
}

func (it *pathProbeIter) Close() {
	if it.run != nil {
		it.run.finish()
		it.run = nil
	}
	it.outer.Close()
}

// parallelEligible reports whether the current probe should fan across the
// traversal worker pool: the planner marked the scan parallel, the session
// configured a pool, and there is more than one source to fan out.
func (it *pathProbeIter) parallelEligible() bool {
	return it.p.Spec.Parallel && it.ctx.Workers > 1 && len(it.starts) > 1
}

// openParallel runs one traversal per start vertex on the worker pool. The
// merge yields paths in start order, so output is byte-identical to the
// sequential loop over it.starts.
func (it *pathProbeIter) openParallel() {
	starts := it.starts
	it.si = len(starts)
	msi := graph.RunMultiSource(it.ctx.Done(), len(starts), it.ctx.Workers, func(i int) ([]*graph.Path, error) {
		return it.drainSource(starts[i])
	})
	it.run = &probeRun{ctx: it.ctx, iter: msi, spErr: msi.Err, msi: msi}
}

// drainSource runs one source's traversal to completion on behalf of a
// worker, returning its paths in kernel order.
func (it *pathProbeIter) drainSource(start *graph.Vertex) ([]*graph.Path, error) {
	run := it.newRun(start)
	defer run.finish()
	var out []*graph.Path
	for {
		// Worker-side cooperative check: a canceled query stops draining
		// even when the kernel below is between its own amortized polls.
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		p := run.iter.Next()
		if run.evalErr != nil {
			return nil, run.evalErr
		}
		if p == nil {
			break
		}
		out = append(out, p)
	}
	if err := run.err(); err != nil {
		return nil, err
	}
	return out, nil
}

// bindProbe evaluates the outer-dependent parts of the spec for the
// current outer row: start vertexes, target, and filter constants.
func (it *pathProbeIter) bindProbe() error {
	spec := &it.p.Spec
	g := it.csr
	it.starts = it.starts[:0]
	it.si = 0
	it.target = nil

	env := &expr.Env{Row: it.outerRow, Params: it.ctx.Params}
	if spec.StartExpr != nil {
		v, err := expr.Eval(spec.StartExpr, env)
		if err != nil {
			return fmt.Errorf("path start binding: %v", err)
		}
		if v.Kind == types.KindInt {
			if sv := g.Vertex(v.I); sv != nil {
				it.starts = append(it.starts, sv)
			}
		}
	} else {
		g.Vertices(func(v *graph.Vertex) bool {
			it.starts = append(it.starts, v)
			return true
		})
	}
	if spec.EndExpr != nil {
		v, err := expr.Eval(spec.EndExpr, env)
		if err != nil {
			return fmt.Errorf("path end binding: %v", err)
		}
		if v.Kind == types.KindInt {
			it.target = g.Vertex(v.I)
		}
		if it.target == nil {
			it.starts = it.starts[:0] // the bound endpoint does not exist
		}
	}
	return it.bindConsts(env)
}

func (it *pathProbeIter) bindConsts(env *expr.Env) error {
	spec := &it.p.Spec
	c := &it.consts
	if err := it.bindFilters(&c.edge, expr.ElemEdges, spec.EdgeFilters, env); err != nil {
		return err
	}
	if err := it.bindFilters(&c.vert, expr.ElemVertexes, spec.VertexFilters, env); err != nil {
		return err
	}
	c.boundVals = c.boundVals[:0]
	for i := range spec.AggBounds {
		v, err := expr.Eval(spec.AggBounds[i].Bound, env)
		if err != nil {
			return err
		}
		c.boundVals = append(c.boundVals, v)
	}
	return nil
}

// bindFilters evaluates the constants of the pushed filters fs over the
// probe's outer row into b, reusing its slices, and compiles each filter
// to a graph.Pred against them: a typed test over the binding's column of
// its attribute where compilePred can make one.
func (it *pathProbeIter) bindFilters(b *boundFilters, elem expr.ElemKind, fs []ElemFilter, env *expr.Env) error {
	b.vals, b.preds, b.typed = b.vals[:0], b.preds[:0], false
	for i := range fs {
		f := &fs[i]
		var fv filterVals
		var err error
		if f.IsIn {
			fv.list = make([]types.Value, len(f.List))
			for j, e := range f.List {
				if fv.list[j], err = expr.Eval(e, env); err != nil {
					return err
				}
			}
		} else if fv.other, err = expr.Eval(f.Other, env); err != nil {
			return err
		}
		p := compilePred(it.at, elem, f, fv.other, fv.list)
		b.vals, b.preds = append(b.vals, fv), append(b.preds, p)
		b.typed = b.typed || p.Col != nil
	}
	return nil
}

// predOps maps a comparison to its typed test, and flipped the test of
// the comparison with its operands swapped (k < attr is attr > k).
var predOps = map[expr.BinOp]struct{ op, flipped graph.PredOp }{
	expr.OpEq: {graph.PredEq, graph.PredEq},
	expr.OpNe: {graph.PredNe, graph.PredNe},
	expr.OpLt: {graph.PredLt, graph.PredGt},
	expr.OpLe: {graph.PredLe, graph.PredGe},
	expr.OpGt: {graph.PredGt, graph.PredLt},
	expr.OpGe: {graph.PredGe, graph.PredLe},
}

// compilePred compiles one pushed filter bound to its probe constant
// (other) or list into a typed predicate over the binding's column of its
// attribute. It leaves the column out — the closure answers the filter —
// unless the test is one the column answers exactly as expr.CompareOp
// answers it: a comparison or [NOT] IN whose every constant has the
// attribute's own kind, over an attribute that lays out a column, on a
// binding that has laid it out (catalog.GraphViewAt.Column). A NULL
// constant, a DOUBLE constant against a BIGINT attribute, LIKE, VARCHAR
// attributes and the FanOut/FanIn properties all keep the closure.
func compilePred(at *catalog.GraphViewAt, elem expr.ElemKind, f *ElemFilter, other types.Value, list []types.Value) graph.Pred {
	p := graph.Pred{Lo: f.Rng.Start, Hi: -1}
	switch {
	case f.Rng.All:
		p.Lo = 0
	case !f.Rng.Wildcard:
		p.Hi = f.Rng.End
	}
	kind := f.Ref.Kind
	if f.IsIn {
		for _, v := range list {
			if v.Kind != kind {
				return p
			}
		}
		p.Op = graph.PredIn
		if f.InNeg {
			p.Op = graph.PredNotIn
		}
	} else {
		ops, ok := predOps[f.Op]
		if !ok || other.Kind != kind {
			return p
		}
		p.Op = ops.op
		if f.Flipped {
			p.Op = ops.flipped
		}
	}
	if p.Col = at.Column(elem, f.Ref); p.Col == nil {
		return p
	}
	if kind == types.KindInt {
		p.I = other.I
		for _, v := range list {
			p.Set = append(p.Set, v.I)
		}
		return p
	}
	p.F = other.F
	for _, v := range list {
		p.FSet = append(p.FSet, v.F)
	}
	return p
}

func (it *pathProbeIter) evalFilter(f *ElemFilter, v types.Value, other types.Value, list []types.Value) bool {
	if f.IsIn {
		hit := false
		for _, lv := range list {
			if expr.CompareOp(expr.OpEq, v, lv) {
				hit = true
				break
			}
		}
		return hit != f.InNeg
	}
	if f.Flipped {
		return expr.CompareOp(f.Op, other, v)
	}
	return expr.CompareOp(f.Op, v, other)
}

// newRun instantiates the traversal kernel for one start vertex. The
// returned run owns all mutable traversal state; the closures it installs
// only read from it (spec, resolved references, per-probe constants), so
// runs for different starts may execute on different goroutines.
func (it *pathProbeIter) newRun(start *graph.Vertex) *probeRun {
	spec := &it.p.Spec
	run := &probeRun{ctx: it.ctx, at: it.at}

	target := it.target
	if spec.CycleClose {
		target = start
	}
	gspec := graph.Spec{
		Start:      start,
		Target:     target,
		MinLen:     spec.MinLen,
		MaxLen:     spec.MaxLen,
		Policy:     spec.Policy,
		AllowCycle: spec.CycleClose,
		Traversed:  &run.edges,
		Done:       it.ctx.Done(),
	}
	if len(spec.EdgeFilters) > 0 {
		gspec.FilterEdge = func(pos int, e *graph.Edge, from, to *graph.Vertex) bool {
			run.asked++
			for i := range spec.EdgeFilters {
				f := &spec.EdgeFilters[i]
				if !f.contains(pos) {
					continue
				}
				v, err := it.at.EdgeAttr(e, f.Ref)
				if err != nil {
					run.evalErr = err
					return false
				}
				if fv := &it.consts.edge.vals[i]; !it.evalFilter(f, v, fv.other, fv.list) {
					return false
				}
			}
			return true
		}
	}
	if len(spec.VertexFilters) > 0 {
		gspec.FilterVertex = func(pos int, v *graph.Vertex) bool {
			run.asked++
			for i := range spec.VertexFilters {
				f := &spec.VertexFilters[i]
				if !f.contains(pos) {
					continue
				}
				val, err := it.at.VertexAttr(v, f.Ref)
				if err != nil {
					run.evalErr = err
					return false
				}
				if fv := &it.consts.vert.vals[i]; !it.evalFilter(f, val, fv.other, fv.list) {
					return false
				}
			}
			return true
		}
	}
	if it.consts.edge.typed {
		gspec.EdgePreds = it.consts.edge.preds
	}
	if it.consts.vert.typed {
		gspec.VertexPreds = it.consts.vert.preds
	}
	if len(spec.AggBounds) > 0 {
		gspec.Prune = func(p *graph.Path) bool {
			for i := range spec.AggBounds {
				if !it.checkBound(i, it.consts.boundVals[i], p, &run.evalErr) {
					return false
				}
			}
			return true
		}
	}
	switch spec.Phys {
	case PhysSP:
		gspec.Weights = it.at.Column(expr.ElemEdges, spec.Weight)
		var sp interface {
			graph.CSRIterator
			Err() error
		}
		if it.twoSided {
			read := func(e *graph.Edge) (float64, bool) {
				run.asked++
				v, err := it.at.EdgeAttr(e, spec.Weight)
				return v.AsFloat(), err == nil && v.IsNumeric()
			}
			sp = graph.NewCSRShortestPair(it.csr, gspec, read)
		} else {
			weight := func(pos int, e *graph.Edge, from, to *graph.Vertex) (float64, bool) {
				run.asked++
				v, err := it.at.EdgeAttr(e, spec.Weight)
				if err != nil {
					run.evalErr = err
					return 0, false
				}
				if !v.IsNumeric() {
					run.evalErr = fmt.Errorf("SPScan weight attribute %s.%s is not numeric (kind %s)",
						it.at.GV.Name, spec.WeightAttr, v.Kind)
					return 0, false
				}
				return v.AsFloat(), true
			}
			sp = graph.NewCSRShortest(it.csr, gspec, weight, spec.KPaths)
		}
		run.iter = sp
		run.spErr = sp.Err
	case PhysBFS:
		if it.twoSided {
			r := graph.NewCSRReach(it.csr, gspec)
			run.iter, run.spErr = r, r.Err
		} else {
			run.iter = graph.NewCSRBFS(it.csr, gspec)
		}
	default:
		run.iter = graph.NewCSRDFS(it.csr, gspec)
	}
	if a := it.p.actuals; a != nil {
		a.probes.Add(1)
		if it.twoSided {
			a.twoSided.Add(1)
		}
		if gspec.EdgePreds != nil || gspec.VertexPreds != nil {
			a.typed.Add(1)
		}
	}
	return run
}

// checkBound prunes a partial path that already violates a monotone
// aggregate bound. Pruning is skipped (returns true) when any contribution
// is negative, since the aggregate could still shrink. Evaluation errors
// go to errp (the owning run's error slot).
func (it *pathProbeIter) checkBound(bi int, bound types.Value, p *graph.Path, errp *error) bool {
	b := &it.p.Spec.AggBounds[bi]
	if bound.IsNull() || !bound.IsNumeric() {
		return true // leave it to the residual filter
	}
	var acc float64
	switch b.Agg {
	case "COUNT":
		if b.Elem == expr.ElemVertexes {
			acc = float64(len(p.Verts))
		} else {
			acc = float64(len(p.Edges))
		}
	case "SUM":
		n := len(p.Edges)
		if b.Elem == expr.ElemVertexes {
			n = len(p.Verts)
		}
		for i := 0; i < n; i++ {
			var v types.Value
			var err error
			if b.Elem == expr.ElemVertexes {
				v, err = it.at.VertexAttr(p.Verts[i], b.Ref)
			} else {
				v, err = it.at.EdgeAttr(p.Edges[i], b.Ref)
			}
			if err != nil {
				*errp = err
				return false
			}
			if v.IsNull() || !v.IsNumeric() {
				return true
			}
			f := v.AsFloat()
			if f < 0 {
				return true // non-monotone: cannot prune soundly
			}
			acc += f
		}
	default:
		return true
	}
	switch b.Op {
	case expr.OpLt:
		return acc < bound.AsFloat()
	case expr.OpLe:
		return acc <= bound.AsFloat()
	default:
		return true
	}
}
