package plan

import (
	"fmt"
	"strings"

	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// attachPathScan plans one PATHS item: it analyzes the conjuncts that
// mention the path variable, extracts start/end vertex bindings, infers the
// allowed path-length range (§6.1), pushes per-position predicates and
// monotone aggregate bounds into the traversal (§6.2), picks the physical
// operator (§6.3), and attaches the PathScan probed by the current
// relational tree (Figure 6).
func (p *Planner) attachPathScan(s *sql.Select, tree exec.Operator, fi *fromInfo,
	avail map[string]bool, conjRaw, conjBound []expr.Expr, used []bool,
	binderFor func(*types.Schema) *expr.Binder) (exec.Operator, error) {

	alias := strings.ToLower(fi.alias)
	availPlus := map[string]bool{alias: true}
	for a := range avail {
		availPlus[a] = true
	}
	outerBinder := func() *expr.Binder { return binderFor(tree.Schema()) }

	spec := exec.PathScanSpec{
		View:   fi.gv,
		Alias:  fi.alias,
		MinLen: 1,
		KPaths: 1,
	}
	if fi.item.Hint.AllPaths {
		spec.Policy = graph.VisitPerPath
	}
	lenMin, lenMax := -1, -1 // explicit PS.Length constraints
	exMin := 0               // existence minimum inferred from subscripts

	mine := func(i int) bool {
		if used[i] {
			return false
		}
		set := expr.Qualifiers(conjBound[i])
		return set[alias] && subset(set, availPlus)
	}
	refsAlias := func(e expr.Expr) bool { return expr.Qualifiers(e)[alias] }

	// Under the default visit-once exploration (§5.1.2), per-position
	// filters and aggregate bounds define WHICH sub-graph is traversed —
	// a pruned path leaves its vertex free for another path to reach, so
	// applying them as residuals over the unfiltered traversal tree would
	// change results, not just cost. They are therefore always pushed for
	// VisitGlobal scans; DisablePushdown only affects per-path scans
	// (where pushing is a pure optimization). Note the policy for this
	// decision is known here: cycle detection (pass 1 below) and the
	// ALLPATHS hint (applied above) both select VisitPerPath.

	// Pass 1: cycle-closure detection (kept as residual for exactness).
	for i := range conjRaw {
		if !mine(i) {
			continue
		}
		be, ok := conjBound[i].(*expr.BinaryExpr)
		if !ok || be.Op != expr.OpEq {
			continue
		}
		if k, ok := cycleClosure(be, alias); ok {
			spec.CycleClose = true
			spec.Policy = graph.VisitPerPath
			if k+1 > exMin {
				exMin = k + 1
			}
		}
	}

	pushElems := !p.Opts.DisablePushdown || spec.Policy == graph.VisitGlobal

	// Pass 2: bindings, length constraints, pushable predicates.
	for i := range conjRaw {
		if !mine(i) {
			continue
		}
		rawBE, _ := conjRaw[i].(*expr.BinaryExpr)
		switch b := conjBound[i].(type) {
		case *expr.BinaryExpr:
			if !b.Op.IsComparison() {
				continue
			}
			// Start / end vertex bindings: PS.StartVertex.Id = <outer>.
			if b.Op == expr.OpEq {
				if side, otherRaw, ok := vertexIDBinding(b, rawBE, alias, refsAlias); ok {
					bound, err := outerBinder().Bind(otherRaw.Clone())
					if err != nil {
						return nil, err
					}
					if !side && spec.StartExpr == nil { // start
						spec.StartExpr = bound
						used[i] = true
						continue
					}
					if side && !spec.CycleClose && spec.EndExpr == nil { // end
						spec.EndExpr = bound
						used[i] = true
						continue
					}
				}
			}
			// Length constraints: PS.Length op <int literal>.
			if lo, hi, ok := lengthConstraint(b); ok {
				if lo >= 0 && (lenMin < 0 || lo > lenMin) {
					lenMin = lo
				}
				if hi >= 0 && (lenMax < 0 || hi < lenMax) {
					lenMax = hi
				}
				used[i] = true
				continue
			}
			// Per-position element predicates.
			if f, otherRaw, minNeeded, ok := elemFilter(b, rawBE, alias, refsAlias); ok {
				if !p.Opts.DisableLengthInference && minNeeded > exMin {
					exMin = minNeeded
				}
				if pushElems {
					bound, err := outerBinder().Bind(otherRaw.Clone())
					if err != nil {
						return nil, err
					}
					f.Other = bound
					if f.Elem == expr.ElemVertexes {
						spec.VertexFilters = append(spec.VertexFilters, f)
					} else {
						spec.EdgeFilters = append(spec.EdgeFilters, f)
					}
					used[i] = true
				}
				continue
			}
			// Monotone aggregate bounds (pushed AND kept as residual).
			if ab, boundRaw, ok := aggBound(b, rawBE, alias, refsAlias); ok && pushElems {
				be2, err := outerBinder().Bind(boundRaw.Clone())
				if err != nil {
					return nil, err
				}
				ab.Bound = be2
				spec.AggBounds = append(spec.AggBounds, ab)
				continue
			}
		case *expr.InExpr:
			// PS.Edges[r].Attr IN (...) quantified membership.
			if f, listRaw, minNeeded, ok := elemInFilter(b, conjRaw[i].(*expr.InExpr), alias, refsAlias); ok {
				if !p.Opts.DisableLengthInference && minNeeded > exMin {
					exMin = minNeeded
				}
				if pushElems {
					ob := outerBinder()
					for _, le := range listRaw {
						ble, err := ob.Bind(le.Clone())
						if err != nil {
							return nil, err
						}
						f.List = append(f.List, ble)
					}
					if f.Elem == expr.ElemVertexes {
						spec.VertexFilters = append(spec.VertexFilters, f)
					} else {
						spec.EdgeFilters = append(spec.EdgeFilters, f)
					}
					used[i] = true
				}
				continue
			}
		}
	}

	// Length inference also scans unconsumed residual conjuncts for
	// subscript existence requirements (sound: a reference to position k
	// is unsatisfiable on shorter paths).
	if !p.Opts.DisableLengthInference {
		for i := range conjRaw {
			if used[i] || !mine(i) {
				continue
			}
			if m := subscriptMinimum(conjBound[i], alias); m > exMin {
				exMin = m
			}
		}
	}

	// Resolve the final length window.
	spec.MinLen = 1
	if lenMin >= 0 {
		spec.MinLen = lenMin
	}
	if exMin > spec.MinLen {
		spec.MinLen = exMin
	}
	if lenMax >= 0 {
		spec.MaxLen = lenMax
		if spec.MaxLen < spec.MinLen {
			// Contradictory constraints: empty result, planned as an
			// unsatisfiable window the kernels handle naturally.
			spec.MaxLen = spec.MinLen - 1
		}
	}

	// Physical operator selection (§6.3).
	if err := p.choosePhysical(s, fi, &spec); err != nil {
		return nil, err
	}

	// A k=1 SPScan or a visit-once BFScan between two bound endpoints
	// searches from both ends when nothing reads the path on the way: no
	// cycle closure, no pushed filter or aggregate bound, no length bound,
	// and no predicate over the path left for above the scan. Any of those
	// keeps the one-sided kernel, whose visit order they may observe
	// (DESIGN §6 notes 8 and 9). A visit-once targeted BFScan emits at
	// most one row, so LIMIT plays no part.
	bothEnds := spec.Phys == exec.PhysSP && spec.KPaths == 1 ||
		spec.Phys == exec.PhysBFS && spec.Policy == graph.VisitGlobal
	if bothEnds && spec.StartExpr != nil && spec.EndExpr != nil && !spec.CycleClose &&
		spec.MinLen <= 1 && spec.MaxLen <= 0 &&
		len(spec.EdgeFilters)+len(spec.VertexFilters)+len(spec.AggBounds) == 0 {
		spec.TwoSided = true
		for i := range conjBound {
			if !used[i] && refsAlias(conjBound[i]) {
				spec.TwoSided = false
			}
		}
	}

	// Multi-source scans — no start binding, so the traversal fans out of
	// every vertex — are marked parallelizable: the per-source traversals
	// are independent, and the ParallelPathScan merges their results in
	// source order, so the plan stays deterministic at any worker count.
	// Single-source probes keep the sequential kernel (nothing to fan out).
	spec.Parallel = spec.StartExpr == nil

	return exec.NewPathProbeJoin(tree, spec, nil), nil
}

func (p *Planner) choosePhysical(s *sql.Select, fi *fromInfo, spec *exec.PathScanSpec) error {
	if fi.item.Hint.AllPaths {
		spec.Policy = graph.VisitPerPath
	}
	switch fi.item.Hint.Kind {
	case sql.HintShortestPath:
		w, err := fi.gv.ResolveAttr(expr.ElemEdges, fi.item.Hint.WeightAttr)
		if err != nil {
			return fmt.Errorf("graph view %s has no edge attribute %q for SHORTESTPATH",
				fi.gv.Name, fi.item.Hint.WeightAttr)
		}
		spec.Phys = exec.PhysSP
		spec.WeightAttr, spec.Weight = fi.item.Hint.WeightAttr, w
		spec.KPaths = topK(s)
		return nil
	case sql.HintDFS:
		spec.Phys = exec.PhysDFS
		return nil
	case sql.HintBFS:
		spec.Phys = exec.PhysBFS
		return nil
	}
	// Pattern-matching traversals (all simple paths) favor DFS: its stack
	// is bounded by the path length while a BFS queue holds whole levels.
	if spec.Policy == graph.VisitPerPath {
		spec.Phys = exec.PhysDFS
		return nil
	}
	// Targeted reachability favors BFS: the target is emitted at its
	// minimum depth, so LIMIT 1 stops at the BFS frontier that reaches it.
	if spec.EndExpr != nil {
		spec.Phys = exec.PhysBFS
		return nil
	}
	// The paper's memory rule reads F of the version each execution pins,
	// so PathProbeJoin.Open applies it; an unbounded scan runs DFS.
	spec.Phys = exec.PhysDFS
	spec.ByFanOut = spec.MaxLen > 0
	return nil
}

func topK(s *sql.Select) int {
	k := -1
	if s.Top > 0 {
		k = s.Top
	}
	if s.Limit > 0 && (k < 0 || s.Limit < k) {
		k = s.Limit
	}
	if k < 1 {
		return 1
	}
	return k
}

// cycleClosure recognizes P.Edges[k].EndVertex = P.Edges[0].StartVertex
// (either orientation) and P.EndVertexId = P.StartVertexId.
func cycleClosure(b *expr.BinaryExpr, alias string) (k int, ok bool) {
	le, lok := b.L.(*expr.PathEndpointID)
	re, rok := b.R.(*expr.PathEndpointID)
	if lok && rok &&
		strings.EqualFold(le.Alias, alias) && strings.EqualFold(re.Alias, alias) {
		if !le.End && le.Idx == 0 && re.End {
			return re.Idx, true
		}
		if !re.End && re.Idx == 0 && le.End {
			return le.Idx, true
		}
	}
	lp, lok2 := b.L.(*expr.PathProperty)
	rp, rok2 := b.R.(*expr.PathProperty)
	if lok2 && rok2 && strings.EqualFold(lp.Alias, alias) && strings.EqualFold(rp.Alias, alias) {
		if (lp.Prop == expr.PropStartVertexID && rp.Prop == expr.PropEndVertexID) ||
			(lp.Prop == expr.PropEndVertexID && rp.Prop == expr.PropStartVertexID) {
			return 1, true
		}
	}
	return 0, false
}

// vertexIDBinding recognizes PS.StartVertex.Id = X / PS.EndVertex.Id = X /
// PS.StartVertexId = X where X does not reference the path. It returns
// end=false for a start binding, plus the raw other side.
func vertexIDBinding(b, raw *expr.BinaryExpr, alias string, refsAlias func(expr.Expr) bool) (end bool, otherRaw expr.Expr, ok bool) {
	check := func(side expr.Expr) (bool, bool) {
		switch n := side.(type) {
		case *expr.PathVertexAttr:
			if strings.EqualFold(n.Alias, alias) && strings.EqualFold(n.Attr, "ID") {
				return n.End, true
			}
		case *expr.PathProperty:
			if strings.EqualFold(n.Alias, alias) {
				if n.Prop == expr.PropStartVertexID {
					return false, true
				}
				if n.Prop == expr.PropEndVertexID {
					return true, true
				}
			}
		}
		return false, false
	}
	if e, isBind := check(b.L); isBind && !refsAlias(b.R) {
		return e, raw.R, true
	}
	if e, isBind := check(b.R); isBind && !refsAlias(b.L) {
		return e, raw.L, true
	}
	return false, nil, false
}

// lengthConstraint recognizes PS.Length op <int literal> (either side) and
// returns the implied [lo, hi] contribution (-1 for an open bound).
func lengthConstraint(b *expr.BinaryExpr) (lo, hi int, ok bool) {
	prop, lit, flipped := propAndLiteral(b)
	if prop == nil || prop.Prop != expr.PropLength || lit == nil || lit.Val.Kind != types.KindInt {
		return 0, 0, false
	}
	n := int(lit.Val.I)
	op := b.Op
	if flipped {
		op = flipOp(op)
	}
	switch op {
	case expr.OpEq:
		return n, n, true
	case expr.OpLe:
		return -1, n, true
	case expr.OpLt:
		return -1, n - 1, true
	case expr.OpGe:
		return n, -1, true
	case expr.OpGt:
		return n + 1, -1, true
	default:
		return 0, 0, false
	}
}

func propAndLiteral(b *expr.BinaryExpr) (*expr.PathProperty, *expr.Literal, bool) {
	if p, ok := b.L.(*expr.PathProperty); ok {
		if l, ok := b.R.(*expr.Literal); ok {
			return p, l, false
		}
	}
	if p, ok := b.R.(*expr.PathProperty); ok {
		if l, ok := b.L.(*expr.Literal); ok {
			return p, l, true
		}
	}
	return nil, nil, false
}

// flipOp mirrors a comparison when its operands are swapped.
func flipOp(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	default:
		return op
	}
}

// rngMinimum is the path length a subscript range requires to be
// satisfiable (§6.1).
func rngMinimum(r expr.Rng, elem expr.ElemKind) int {
	// Vertex position k exists when length >= k; edge position k when
	// length >= k+1.
	adj := 1
	if elem == expr.ElemVertexes {
		adj = 0
	}
	switch {
	case r.All:
		return 0
	case r.Wildcard:
		return r.Start + adj
	default:
		return r.End + adj
	}
}

// elemFilter recognizes a pushable comparison over path elements:
// PS.Edges[r].Attr op X (or flipped) with X path-independent.
func elemFilter(b, raw *expr.BinaryExpr, alias string, refsAlias func(expr.Expr) bool) (exec.ElemFilter, expr.Expr, int, bool) {
	if pe, ok := b.L.(*expr.PathElemAttr); ok &&
		strings.EqualFold(pe.Alias, alias) && !pe.Rng.All && !refsAlias(b.R) {
		f := exec.ElemFilter{Elem: pe.Elem, Rng: pe.Rng, Attr: pe.Attr, Ref: pe.Ref, Op: b.Op}
		return f, raw.R, rngMinimum(pe.Rng, pe.Elem), true
	}
	if pe, ok := b.R.(*expr.PathElemAttr); ok &&
		strings.EqualFold(pe.Alias, alias) && !pe.Rng.All && !refsAlias(b.L) {
		f := exec.ElemFilter{Elem: pe.Elem, Rng: pe.Rng, Attr: pe.Attr, Ref: pe.Ref, Op: b.Op, Flipped: true}
		return f, raw.L, rngMinimum(pe.Rng, pe.Elem), true
	}
	return exec.ElemFilter{}, nil, 0, false
}

// elemInFilter recognizes PS.Edges[r].Attr [NOT] IN (list) with a
// path-independent list.
func elemInFilter(b *expr.InExpr, raw *expr.InExpr, alias string, refsAlias func(expr.Expr) bool) (exec.ElemFilter, []expr.Expr, int, bool) {
	pe, ok := b.E.(*expr.PathElemAttr)
	if !ok || !strings.EqualFold(pe.Alias, alias) || pe.Rng.All {
		return exec.ElemFilter{}, nil, 0, false
	}
	for _, le := range b.List {
		if refsAlias(le) {
			return exec.ElemFilter{}, nil, 0, false
		}
	}
	f := exec.ElemFilter{Elem: pe.Elem, Rng: pe.Rng, Attr: pe.Attr, Ref: pe.Ref, IsIn: true, InNeg: b.Neg}
	return f, raw.List, rngMinimum(pe.Rng, pe.Elem), true
}

// aggBound recognizes SUM(PS.Edges.A) < X / <= X (or the flipped > / >=
// with the aggregate on the right) and COUNT variants.
func aggBound(b, raw *expr.BinaryExpr, alias string, refsAlias func(expr.Expr) bool) (exec.AggBound, expr.Expr, bool) {
	match := func(side expr.Expr) (exec.AggBound, bool) {
		fc, ok := side.(*expr.FuncCall)
		if !ok || len(fc.Args) != 1 {
			return exec.AggBound{}, false
		}
		name := strings.ToUpper(fc.Name)
		if name != "SUM" && name != "COUNT" {
			return exec.AggBound{}, false
		}
		pe, ok := fc.Args[0].(*expr.PathElemAttr)
		if !ok || !pe.Rng.All || !strings.EqualFold(pe.Alias, alias) || (name == "SUM" && pe.Attr == "") {
			return exec.AggBound{}, false
		}
		return exec.AggBound{Agg: name, Elem: pe.Elem, Ref: pe.Ref}, true
	}
	if ab, ok := match(b.L); ok && !refsAlias(b.R) && (b.Op == expr.OpLt || b.Op == expr.OpLe) {
		ab.Op = b.Op
		return ab, raw.R, true
	}
	if ab, ok := match(b.R); ok && !refsAlias(b.L) && (b.Op == expr.OpGt || b.Op == expr.OpGe) {
		ab.Op = flipOp(b.Op)
		return ab, raw.L, true
	}
	return exec.AggBound{}, nil, false
}

// subscriptMinimum walks a residual conjunct for subscripted references to
// the path, returning the largest existence requirement found in a
// quantifier-safe position (direct comparison/IN operands only; the
// evaluator's semantics make a reference to a missing position falsify the
// predicate there).
func subscriptMinimum(e expr.Expr, alias string) int {
	m := 0
	expr.Walk(e, func(n expr.Expr) bool {
		switch x := n.(type) {
		case *expr.UnaryExpr:
			if x.Op == expr.OpNot {
				return false // inference under NOT would be unsound
			}
		case *expr.BinaryExpr:
			if x.Op == expr.OpOr {
				return false // either disjunct may hold
			}
		case *expr.CaseExpr:
			return false
		case *expr.PathElemAttr:
			if strings.EqualFold(x.Alias, alias) {
				if v := rngMinimum(x.Rng, x.Elem); v > m {
					m = v
				}
			}
		case *expr.PathEndpointID:
			if strings.EqualFold(x.Alias, alias) {
				if v := x.Idx + 1; v > m {
					m = v
				}
			}
		}
		return true
	})
	return m
}
