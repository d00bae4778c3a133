// Package plan translates parsed SELECT statements into physical operator
// trees (QEPs). It implements the paper's cross-model planning (§5.3) —
// relational items are joined first, then each PATHS item is attached as a
// traversal probed by the relational side (Figure 6) — and the §6
// optimizations: path-length inference, pushing predicates and monotone
// aggregate bounds ahead of PathScan, and logical→physical traversal
// operator selection.
package plan

import (
	"fmt"
	"strings"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// Options control optimizer behaviour; the zero value enables everything
// (the defaults the paper runs with outside ablations).
type Options struct {
	// DisablePushdown keeps the path predicates of per-path (ALLPATHS)
	// scans as residual filters above the PathScan instead of pushing them
	// into the traversal (§7.1 disables pushdown to isolate the graph-view
	// benefit in the reachability experiments). Visit-once scans push
	// regardless: there the predicates pick the traversed sub-graph.
	DisablePushdown bool
	// DisableLengthInference turns off §6.1 path-length inference.
	DisableLengthInference bool
	// MaterializeJoins wraps every join output in a temp-table barrier,
	// reproducing VoltDB's materialize-per-fragment execution model. The
	// SQLGraph baseline runs in this mode (§7.2's intermediate-memory
	// abort depends on it); GRFusion itself pipelines.
	MaterializeJoins bool
}

// Planner builds QEPs against a catalog. A plan holds no version of any
// table or graph view: it reads its execution's pin at Open
// (exec.Context), so one plan serves every version of its catalog.
type Planner struct {
	Cat  *catalog.Catalog
	Opts Options
}

// New creates a planner with default options.
func New(cat *catalog.Catalog) *Planner { return &Planner{Cat: cat} }

// fromKind classifies a FROM item.
type fromKind uint8

const (
	kindTable fromKind = iota
	kindVertexes
	kindEdges
	kindPaths
	kindAnalytics
)

type fromInfo struct {
	item   sql.FromItem
	alias  string // display alias
	kind   fromKind
	table  *storage.Table
	gv     *catalog.GraphView // a graph-view item's view
	schema *types.Schema
}

// PlanSelect compiles a SELECT into an executable operator tree.
func (p *Planner) PlanSelect(s *sql.Select) (exec.Operator, error) {
	// A FROM-less SELECT evaluates its items once over a singleton row.
	infos, err := p.resolveFrom(s.From)
	if err != nil {
		return nil, err
	}
	// Global schema + path bindings, used to classify predicates. Path
	// attributes resolve against their graph view's definition.
	global := types.NewSchema()
	viewByAlias := map[string]expr.GraphSchema{}
	for i := range infos {
		fi := &infos[i]
		global = global.Concat(fi.schema)
		if fi.kind == kindPaths {
			viewByAlias[strings.ToLower(fi.alias)] = fi.gv
		}
	}
	binderFor := func(schema *types.Schema) *expr.Binder {
		b := expr.NewBinder(schema)
		for i, c := range schema.Columns {
			if c.Type == types.KindPath && strings.EqualFold(c.Name, catalog.PathColumn) {
				if gv, ok := viewByAlias[strings.ToLower(c.Qualifier)]; ok {
					b.WithPath(c.Qualifier, expr.PathBinding{Col: i, View: gv})
				}
			}
		}
		return b
	}

	// Split WHERE into conjuncts; bind a throwaway copy globally for
	// classification, keeping the raw trees for local rebinding.
	var conjRaw []expr.Expr
	var conjBound []expr.Expr
	if s.Where != nil {
		conjRaw = expr.SplitConjuncts(s.Where)
		gb := binderFor(global)
		for _, c := range conjRaw {
			bc, err := gb.Bind(c.Clone())
			if err != nil {
				return nil, err
			}
			conjBound = append(conjBound, bc)
		}
	}
	used := make([]bool, len(conjRaw))

	// --- Relational stage: join all non-PATHS items left-deep. -----------
	var relInfos, pathInfos []*fromInfo
	for i := range infos {
		if infos[i].kind == kindPaths {
			pathInfos = append(pathInfos, &infos[i])
		} else {
			relInfos = append(relInfos, &infos[i])
		}
	}

	var tree exec.Operator
	joinedAliases := map[string]bool{}
	for _, fi := range relInfos {
		self := map[string]bool{strings.ToLower(fi.alias): true}
		// Single-item conjuncts become the scan filter.
		var scanConj []expr.Expr
		var scanConjIdx []int
		for i := range conjRaw {
			if used[i] {
				continue
			}
			set := expr.Qualifiers(conjBound[i])
			if len(set) > 0 && subset(set, self) {
				scanConj = append(scanConj, conjRaw[i])
				scanConjIdx = append(scanConjIdx, i)
			}
		}
		scan, err := p.buildScan(fi, scanConj, binderFor)
		if err != nil {
			return nil, err
		}
		for _, i := range scanConjIdx {
			used[i] = true
		}
		if tree == nil {
			tree = scan
			for a := range self {
				joinedAliases[a] = true
			}
			continue
		}
		tree, err = p.joinNext(tree, scan, joinedAliases, strings.ToLower(fi.alias),
			conjRaw, conjBound, used, binderFor)
		if err != nil {
			return nil, err
		}
		joinedAliases[strings.ToLower(fi.alias)] = true
	}
	if tree == nil {
		tree = exec.Singleton{}
	}
	// Conjuncts over the relational aliases only (including alias-free
	// constants) are applied now.
	if op, err := p.applyFilters(tree, joinedAliases, conjRaw, conjBound, used, binderFor); err != nil {
		return nil, err
	} else {
		tree = op
	}

	// --- Graph stage: attach each PATHS item as a probe join (§5.3). -----
	for _, fi := range pathInfos {
		tree, err = p.attachPathScan(s, tree, fi, joinedAliases, conjRaw, conjBound, used, binderFor)
		if err != nil {
			return nil, err
		}
		joinedAliases[strings.ToLower(fi.alias)] = true
		if op, err := p.applyFilters(tree, joinedAliases, conjRaw, conjBound, used, binderFor); err != nil {
			return nil, err
		} else {
			tree = op
		}
	}
	// Anything unconsumed at this point is a bug or an unresolvable
	// reference; surface it.
	for i := range conjRaw {
		if !used[i] {
			return nil, fmt.Errorf("predicate %s references unknown range variables", conjRaw[i])
		}
	}

	return p.finishSelect(s, tree, infos, binderFor)
}

// resolveFrom resolves FROM items against the catalog.
func (p *Planner) resolveFrom(items []sql.FromItem) ([]fromInfo, error) {
	var infos []fromInfo
	seen := map[string]bool{}
	for _, item := range items {
		fi := fromInfo{item: item, alias: item.AliasOrName()}
		key := strings.ToLower(fi.alias)
		if seen[key] {
			return nil, fmt.Errorf("duplicate range variable %q in FROM", fi.alias)
		}
		seen[key] = true
		if item.Member == sql.MemberNone {
			t, ok := p.Cat.Table(item.Name)
			if !ok {
				return nil, fmt.Errorf("unknown table %q", item.Name)
			}
			fi.kind = kindTable
			fi.table = t
			fi.schema = t.Schema().WithQualifier(fi.alias)
		} else {
			gv, ok := p.Cat.GraphView(item.Name)
			if !ok {
				return nil, fmt.Errorf("unknown graph view %q", item.Name)
			}
			fi.gv = gv
			switch item.Member {
			case sql.MemberVertexes:
				fi.kind = kindVertexes
				fi.schema = gv.VertexSchema().WithQualifier(fi.alias)
			case sql.MemberEdges:
				fi.kind = kindEdges
				fi.schema = gv.EdgeSchema().WithQualifier(fi.alias)
			case sql.MemberAnalytics:
				fn, ok := exec.AnalyticsFuncByName(item.Func)
				if !ok {
					return nil, fmt.Errorf("unknown analytics function %q on graph view %q (want PAGERANK, CONNECTED_COMPONENTS, LABEL_PROPAGATION or DEGREE_CENTRALITY)", item.Func, item.Name)
				}
				lo, hi := fn.Arity()
				if len(item.Args) < lo || len(item.Args) > hi {
					return nil, fmt.Errorf("%s expects between %d and %d arguments, got %d", fn, lo, hi, len(item.Args))
				}
				for _, a := range item.Args {
					switch a.(type) {
					case *expr.Literal, *expr.Param:
					default:
						return nil, fmt.Errorf("%s arguments must be literals or parameters, got %s", fn, a)
					}
				}
				fi.kind = kindAnalytics
				fi.schema = exec.AnalyticsSchema(fn).WithQualifier(fi.alias)
			default:
				fi.kind = kindPaths
				fi.schema = types.NewSchema(exec.PathColumn(fi.alias))
			}
		}
		infos = append(infos, fi)
	}
	return infos, nil
}

// buildScan plans one relational leaf; a table's access path is
// ChooseAccess's.
func (p *Planner) buildScan(fi *fromInfo, conj []expr.Expr,
	binderFor func(*types.Schema) *expr.Binder) (exec.Operator, error) {

	bindLocal := func(es []expr.Expr) (expr.Expr, error) {
		if len(es) == 0 {
			return nil, nil
		}
		b := binderFor(fi.schema)
		var bound []expr.Expr
		for _, e := range es {
			be, err := b.Bind(e.Clone())
			if err != nil {
				return nil, err
			}
			bound = append(bound, be)
		}
		return expr.JoinConjuncts(bound), nil
	}

	if fi.kind != kindTable {
		f, err := bindLocal(conj)
		if err != nil {
			return nil, err
		}
		switch fi.kind {
		case kindVertexes:
			return exec.NewElemScan(fi.gv, expr.ElemVertexes, fi.alias, f), nil
		case kindEdges:
			return exec.NewElemScan(fi.gv, expr.ElemEdges, fi.alias, f), nil
		}
		fn, _ := exec.AnalyticsFuncByName(fi.item.Func)
		return exec.NewAnalyticsScan(fi.gv, fi.alias, fn, fi.item.Args, f), nil
	}

	acc, rest := ChooseAccess(fi.table, fi.schema, conj)
	f, err := bindLocal(rest)
	if err != nil {
		return nil, err
	}
	return exec.NewTableScan(fi.table, fi.alias, acc, f), nil
}

// ChooseAccess decides which index of t, if any, serves a conjunction over
// its columns (resolved through schema, t's columns under the statement's
// range variable), and returns the conjuncts left over for a residual
// filter. It is the only place an index is chosen — SELECT leaves and
// UPDATE/DELETE targets both come here — and the rule is: the first
// `col = constant` on a column with any single-column index (the primary
// key, then hash, then ordered) is a point probe; else the first column
// compared against constants that has an ordered index is a range probe,
// taking one bound per side (further bounds stay residual); else every row
// is visited.
func ChooseAccess(t *storage.Table, schema *types.Schema, conj []expr.Expr) (exec.Access, []expr.Expr) {
	find := func(pos int, ordered bool) *storage.Index {
		ix, _ := t.FindIndexOn([]int{pos}, ordered)
		return ix
	}
	type colRange struct {
		pos  int
		acc  exec.Access
		used []int
	}
	var ranges []*colRange // in order of first appearance
	for i, c := range conj {
		pos, op, lit, ok := colOpConst(schema, c)
		if !ok {
			continue
		}
		if op == expr.OpEq {
			if ix := find(pos, false); ix != nil {
				return exec.Access{Index: ix, Lo: lit, Hi: lit, LoInc: true, HiInc: true}, without(conj, i)
			}
			continue
		}
		var r *colRange
		for _, have := range ranges {
			if have.pos == pos {
				r = have
			}
		}
		if r == nil {
			r = &colRange{pos: pos}
			ranges = append(ranges, r)
		}
		switch {
		case (op == expr.OpGt || op == expr.OpGe) && r.acc.Lo == nil:
			r.acc.Lo, r.acc.LoInc = lit, op == expr.OpGe
			r.used = append(r.used, i)
		case (op == expr.OpLt || op == expr.OpLe) && r.acc.Hi == nil:
			r.acc.Hi, r.acc.HiInc = lit, op == expr.OpLe
			r.used = append(r.used, i)
		}
	}
	for _, r := range ranges {
		if r.acc.Index = find(r.pos, true); r.acc.Index != nil {
			return r.acc, without(conj, r.used...)
		}
	}
	return exec.Access{}, conj
}

// colOpConst recognizes `column op constant` (or its mirror image, with
// op flipped) for the five operators an index can serve, resolving the
// column to its position in schema.
func colOpConst(schema *types.Schema, c expr.Expr) (pos int, op expr.BinOp, lit expr.Expr, ok bool) {
	be, isBin := c.(*expr.BinaryExpr)
	if !isBin || (be.Op != expr.OpEq && !isRangeOp(be.Op)) {
		return 0, 0, nil, false
	}
	op = be.Op
	col, lit := asColLiteral(be.L, be.R)
	if col == nil {
		col, lit = asColLiteral(be.R, be.L)
		op = flipOp(op)
	}
	if col == nil {
		return 0, 0, nil, false
	}
	pos, err := schema.Resolve(col.Qualifier, col.Name)
	return pos, op, lit, err == nil
}

// without returns conj minus the conjuncts at the given (ascending)
// positions.
func without(conj []expr.Expr, drop ...int) []expr.Expr {
	rest := make([]expr.Expr, 0, len(conj)-len(drop))
	for i, c := range conj {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		rest = append(rest, c)
	}
	return rest
}

func isRangeOp(op expr.BinOp) bool {
	return op == expr.OpLt || op == expr.OpLe || op == expr.OpGt || op == expr.OpGe
}

// asColLiteral recognizes one side as a bare column reference and the
// other as an execution-time constant (a literal or a `?` parameter),
// enabling index point lookups for both ad-hoc and prepared statements.
func asColLiteral(a, b expr.Expr) (*expr.ColumnRef, expr.Expr) {
	var col *expr.ColumnRef
	switch n := a.(type) {
	case *expr.ColumnRef:
		col = n
	case *expr.RawRef:
		if len(n.Parts) == 1 && !n.Parts[0].HasIndex {
			col = &expr.ColumnRef{Name: n.Parts[0].Name, Idx: -1}
		} else if len(n.Parts) == 2 && !n.Parts[0].HasIndex && !n.Parts[1].HasIndex {
			col = &expr.ColumnRef{Qualifier: n.Parts[0].Name, Name: n.Parts[1].Name, Idx: -1}
		}
	}
	if col == nil {
		return nil, nil
	}
	switch b.(type) {
	case *expr.Literal, *expr.Param:
		return col, b
	}
	return nil, nil
}

// joinNext joins the next relational scan onto the tree, preferring a hash
// join over the available equi-conjuncts.
func (p *Planner) joinNext(tree, scan exec.Operator, joined map[string]bool, next string,
	conjRaw, conjBound []expr.Expr, used []bool,
	binderFor func(*types.Schema) *expr.Binder) (exec.Operator, error) {

	both := map[string]bool{next: true}
	for a := range joined {
		both[a] = true
	}
	var leftKeys, rightKeys []expr.Expr
	var residualRaw []expr.Expr
	var usedIdx []int
	for i := range conjRaw {
		if used[i] {
			continue
		}
		set := expr.Qualifiers(conjBound[i])
		if len(set) == 0 || !subset(set, both) || !set[next] {
			continue
		}
		// Equi-join candidate: a = b with sides on opposite alias sets.
		if be, ok := conjBound[i].(*expr.BinaryExpr); ok && be.Op == expr.OpEq {
			ls, rs := expr.Qualifiers(be.L), expr.Qualifiers(be.R)
			raw := conjRaw[i].(*expr.BinaryExpr)
			lb := binderFor(tree.Schema())
			rb := binderFor(scan.Schema())
			switch {
			case len(ls) > 0 && subset(ls, joined) && len(rs) > 0 && subset(rs, map[string]bool{next: true}):
				lk, err := lb.Bind(raw.L.Clone())
				if err != nil {
					return nil, err
				}
				rk, err := rb.Bind(raw.R.Clone())
				if err != nil {
					return nil, err
				}
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
				usedIdx = append(usedIdx, i)
				continue
			case len(rs) > 0 && subset(rs, joined) && len(ls) > 0 && subset(ls, map[string]bool{next: true}):
				lk, err := lb.Bind(raw.R.Clone())
				if err != nil {
					return nil, err
				}
				rk, err := rb.Bind(raw.L.Clone())
				if err != nil {
					return nil, err
				}
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
				usedIdx = append(usedIdx, i)
				continue
			}
		}
		residualRaw = append(residualRaw, conjRaw[i])
		usedIdx = append(usedIdx, i)
	}
	outSchema := tree.Schema().Concat(scan.Schema())
	var residual expr.Expr
	if len(residualRaw) > 0 {
		b := binderFor(outSchema)
		var bound []expr.Expr
		for _, e := range residualRaw {
			be, err := b.Bind(e.Clone())
			if err != nil {
				return nil, err
			}
			bound = append(bound, be)
		}
		residual = expr.JoinConjuncts(bound)
	}
	for _, i := range usedIdx {
		used[i] = true
	}
	var join exec.Operator
	if len(leftKeys) > 0 {
		join = exec.NewHashJoin(tree, scan, leftKeys, rightKeys, residual)
	} else {
		join = exec.NewNestedLoopJoin(tree, scan, residual)
	}
	if p.Opts.MaterializeJoins {
		join = exec.NewMaterialize(join)
	}
	return join, nil
}

// applyFilters attaches any still-unused conjuncts whose range variables
// are all available in the current tree.
func (p *Planner) applyFilters(tree exec.Operator, avail map[string]bool,
	conjRaw, conjBound []expr.Expr, used []bool,
	binderFor func(*types.Schema) *expr.Binder) (exec.Operator, error) {

	var pending []expr.Expr
	for i := range conjRaw {
		if used[i] {
			continue
		}
		set := expr.Qualifiers(conjBound[i])
		if subset(set, avail) {
			pending = append(pending, conjRaw[i])
			used[i] = true
		}
	}
	if len(pending) == 0 {
		return tree, nil
	}
	b := binderFor(tree.Schema())
	var bound []expr.Expr
	for _, e := range pending {
		be, err := b.Bind(e.Clone())
		if err != nil {
			return nil, err
		}
		bound = append(bound, be)
	}
	return exec.NewFilter(tree, expr.JoinConjuncts(bound)), nil
}

func subset(set, allowed map[string]bool) bool {
	for a := range set {
		if !allowed[a] {
			return false
		}
	}
	return true
}
