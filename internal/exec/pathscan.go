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
	if p.Spec.Phys == PhysSP {
		fmt.Fprintf(&sb, " weight=%s k=%d", p.Spec.WeightAttr, p.Spec.KPaths)
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
	return &pathProbeIter{ctx: ctx, p: p, outer: outer, at: p.Spec.At, csr: p.Spec.At.CSR()}, nil
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
	spErr   func() error // kernel error surface (SPScan, parallel merge)
	edges   int64        // run-local EdgesTraversed
	msi     *graph.MultiSourceIter
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
}

// probeConsts holds the per-probe constant values of pushed filters.
type probeConsts struct {
	edgeOther []types.Value
	edgeList  [][]types.Value
	vertOther []types.Value
	vertList  [][]types.Value
	boundVals []types.Value
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
	evalList := func(list []expr.Expr) ([]types.Value, error) {
		out := make([]types.Value, len(list))
		for i, e := range list {
			v, err := expr.Eval(e, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var err error
	bindFilters := func(fs []ElemFilter) (others []types.Value, lists [][]types.Value, err error) {
		others = make([]types.Value, len(fs))
		lists = make([][]types.Value, len(fs))
		for i := range fs {
			if fs[i].IsIn {
				if lists[i], err = evalList(fs[i].List); err != nil {
					return nil, nil, err
				}
			} else {
				if others[i], err = expr.Eval(fs[i].Other, env); err != nil {
					return nil, nil, err
				}
			}
		}
		return others, lists, nil
	}
	if c.edgeOther, c.edgeList, err = bindFilters(spec.EdgeFilters); err != nil {
		return err
	}
	if c.vertOther, c.vertList, err = bindFilters(spec.VertexFilters); err != nil {
		return err
	}
	c.boundVals = make([]types.Value, len(spec.AggBounds))
	for i := range spec.AggBounds {
		if c.boundVals[i], err = expr.Eval(spec.AggBounds[i].Bound, env); err != nil {
			return err
		}
	}
	return nil
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
	run := &probeRun{ctx: it.ctx}

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
		Done:       it.ctx.Done(),
	}
	gspec.FilterEdge = func(pos int, e *graph.Edge, from, to *graph.Vertex) bool {
		run.edges++
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
			if !it.evalFilter(f, v, it.consts.edgeOther[i], it.consts.edgeList[i]) {
				return false
			}
		}
		return true
	}
	if len(spec.VertexFilters) > 0 {
		gspec.FilterVertex = func(pos int, v *graph.Vertex) bool {
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
				if !it.evalFilter(f, val, it.consts.vertOther[i], it.consts.vertList[i]) {
					return false
				}
			}
			return true
		}
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
		weight := func(pos int, e *graph.Edge, from, to *graph.Vertex) (float64, bool) {
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
		sp := graph.NewCSRShortest(it.csr, gspec, weight, spec.KPaths)
		run.iter = sp
		run.spErr = sp.Err
	case PhysBFS:
		run.iter = graph.NewCSRBFS(it.csr, gspec)
	default:
		run.iter = graph.NewCSRDFS(it.csr, gspec)
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
