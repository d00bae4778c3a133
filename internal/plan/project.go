package plan

import (
	"fmt"
	"strings"

	"grfusion/internal/exec"
	"grfusion/internal/expr"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// selItem is one resolved output column.
type selItem struct {
	raw  expr.Expr
	name string
}

// finishSelect plans aggregation, projection, DISTINCT, ORDER BY and
// LIMIT/TOP on top of the joined tree.
func (p *Planner) finishSelect(s *sql.Select, tree exec.Operator, infos []fromInfo,
	binderFor func(*types.Schema) *expr.Binder) (exec.Operator, error) {

	items, err := expandStars(s.Items, infos)
	if err != nil {
		return nil, err
	}
	childBinder := binderFor(tree.Schema())

	// Bind every output expression against the tree.
	boundItems := make([]expr.Expr, len(items))
	for i, it := range items {
		be, err := childBinder.Bind(it.raw.Clone())
		if err != nil {
			return nil, err
		}
		boundItems[i] = be
	}
	var boundHaving expr.Expr
	if s.Having != nil {
		if boundHaving, err = childBinder.Bind(s.Having.Clone()); err != nil {
			return nil, err
		}
	}

	hasAgg := len(s.GroupBy) > 0 || boundHaving != nil
	for _, be := range boundItems {
		if expr.HasAggregate(be) {
			hasAgg = true
		}
	}
	for _, o := range s.OrderBy {
		// Classify on the bound form: SUM(PS.Edges.conf) is a per-path
		// aggregate, visible only after binding. Unbindable keys (select
		// aliases) cannot introduce aggregation by themselves.
		if bo, err := childBinder.Bind(o.E.Clone()); err == nil && expr.HasAggregate(bo) {
			hasAgg = true
		}
	}

	var sortBelow []exec.SortKey // sort keys bound below the projection
	if hasAgg {
		tree, boundItems, err = p.planAggregate(s, tree, items, boundItems, boundHaving, childBinder)
		if err != nil {
			return nil, err
		}
	}

	// Projection.
	outCols := make([]types.Column, len(items))
	for i := range items {
		outCols[i] = types.Column{Name: items[i].name, Type: inferKind(boundItems[i], schemaOf(tree))}
	}
	outSchema := types.NewSchema(outCols...)

	if !hasAgg && len(s.OrderBy) > 0 {
		// Try binding order keys below the projection (general SQL
		// semantics: ORDER BY may reference unprojected columns).
		keys, ok := bindSortKeys(s.OrderBy, binderFor(tree.Schema()))
		if ok {
			sortBelow = keys
		}
	}
	if len(sortBelow) > 0 {
		tree = exec.NewSort(tree, sortBelow)
	}
	proj := exec.NewProject(tree, boundItems, outSchema)
	var top exec.Operator = proj

	if s.Distinct {
		top = exec.NewDistinct(top)
	}
	if len(s.OrderBy) > 0 && len(sortBelow) == 0 {
		// Resolve against the projected output: select aliases/names, or a
		// textual match with a select item (covers ORDER BY COUNT(*) and
		// ORDER BY U.name in grouped queries).
		keys, err := resolveOrderAgainstOutput(s.OrderBy, items, binderFor(outSchema))
		if err != nil {
			return nil, err
		}
		top = exec.NewSort(top, keys)
	}
	limit := -1
	if s.Top >= 0 {
		limit = s.Top
	}
	if s.Limit >= 0 && (limit < 0 || s.Limit < limit) {
		limit = s.Limit
	}
	if limit >= 0 || s.Offset > 0 {
		top = exec.NewLimit(top, limit, s.Offset)
	}
	return top, nil
}

func schemaOf(op exec.Operator) *types.Schema { return op.Schema() }

// bindSortKeys binds every ORDER BY key with the given binder, reporting
// whether all succeeded.
func bindSortKeys(order []sql.OrderItem, b *expr.Binder) ([]exec.SortKey, bool) {
	keys := make([]exec.SortKey, 0, len(order))
	for _, o := range order {
		be, err := b.Bind(o.E.Clone())
		if err != nil {
			return nil, false
		}
		keys = append(keys, exec.SortKey{E: be, Desc: o.Desc})
	}
	return keys, true
}

// expandStars resolves * and qualified stars into explicit output items.
func expandStars(items []sql.SelectItem, infos []fromInfo) ([]selItem, error) {
	var out []selItem
	addItem := func(fi *fromInfo) {
		if fi.kind == kindPaths {
			out = append(out, selItem{
				raw:  &expr.RawRef{Parts: []expr.RefPart{{Name: fi.alias}}},
				name: fi.alias,
			})
			return
		}
		for _, c := range fi.schema.Columns {
			out = append(out, selItem{
				raw:  &expr.RawRef{Parts: []expr.RefPart{{Name: fi.alias}, {Name: c.Name}}},
				name: c.Name,
			})
		}
	}
	for _, it := range items {
		if !it.Star {
			out = append(out, selItem{raw: it.Expr, name: outputName(it)})
			continue
		}
		if it.StarQual == "" {
			for i := range infos {
				addItem(&infos[i])
			}
			continue
		}
		found := false
		for i := range infos {
			if strings.EqualFold(infos[i].alias, it.StarQual) {
				addItem(&infos[i])
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown range variable %q in %s.*", it.StarQual, it.StarQual)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty select list")
	}
	return out, nil
}

func outputName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if r, ok := it.Expr.(*expr.RawRef); ok {
		last := r.Parts[len(r.Parts)-1]
		if !last.HasIndex {
			return last.Name
		}
	}
	return it.Expr.String()
}

// resolveOrderAgainstOutput binds each ORDER BY key against the projected
// output schema (select aliases and column names), falling back to a
// textual match with a select item's source expression.
func resolveOrderAgainstOutput(order []sql.OrderItem, items []selItem, out *expr.Binder) ([]exec.SortKey, error) {
	keys := make([]exec.SortKey, 0, len(order))
	for _, o := range order {
		// Aggregates cannot evaluate row-at-a-time above the projection;
		// they must match a projected select item below instead.
		if be, err := out.Bind(o.E.Clone()); err == nil && !expr.HasAggregate(be) {
			keys = append(keys, exec.SortKey{E: be, Desc: o.Desc})
			continue
		}
		found := false
		for i := range items {
			if strings.EqualFold(o.E.String(), items[i].raw.String()) {
				keys = append(keys, exec.SortKey{
					E:    &expr.ColumnRef{Name: items[i].name, Idx: i},
					Desc: o.Desc,
				})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cannot resolve ORDER BY key %s against the select list", o.E)
		}
	}
	return keys, nil
}

// planAggregate builds the aggregation pipeline — a HashAggregate, or an
// analytics scan that folds the aggregates itself — with group keys,
// aggregate specs and HAVING, and rewrites the output to reference the
// aggregate's output columns.
func (p *Planner) planAggregate(s *sql.Select, tree exec.Operator, items []selItem,
	boundItems []expr.Expr, boundHaving expr.Expr, childBinder *expr.Binder,
) (exec.Operator, []expr.Expr, error) {

	// Bind group expressions against the child.
	groups := make([]expr.Expr, len(s.GroupBy))
	groupStrs := make([]string, len(s.GroupBy))
	for i, g := range s.GroupBy {
		bg, err := childBinder.Bind(g.Clone())
		if err != nil {
			return nil, nil, err
		}
		groups[i] = bg
		groupStrs[i] = bg.String()
	}

	var aggs []exec.AggSpec
	var aggStrs []string
	ensureAgg := func(f *expr.FuncCall) int {
		key := strings.ToUpper(f.String())
		for i, s := range aggStrs {
			if s == key {
				return i
			}
		}
		spec := exec.AggSpec{Name: strings.ToUpper(f.Name), Distinct: f.Distinct}
		if !f.Star {
			spec.Arg = f.Args[0]
		}
		aggs = append(aggs, spec)
		aggStrs = append(aggStrs, key)
		return len(aggs) - 1
	}

	// rewrite maps a bound child-schema expression into the aggregate's
	// output schema.
	var rewrite func(e expr.Expr) (expr.Expr, error)
	rewrite = func(e expr.Expr) (expr.Expr, error) {
		for i, gs := range groupStrs {
			if strings.EqualFold(e.String(), gs) {
				return &expr.ColumnRef{Name: groupColName(i), Idx: i}, nil
			}
		}
		if f, ok := e.(*expr.FuncCall); ok && f.IsAggregate() {
			idx := ensureAgg(f)
			return &expr.ColumnRef{Name: aggColName(idx), Idx: len(groups) + idx}, nil
		}
		switch n := e.(type) {
		case *expr.Literal:
			return n, nil
		case *expr.BinaryExpr:
			l, err := rewrite(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(n.R)
			if err != nil {
				return nil, err
			}
			return &expr.BinaryExpr{Op: n.Op, L: l, R: r}, nil
		case *expr.UnaryExpr:
			x, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			return &expr.UnaryExpr{Op: n.Op, E: x}, nil
		case *expr.InExpr:
			x, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			out := &expr.InExpr{E: x, Neg: n.Neg}
			for _, le := range n.List {
				rl, err := rewrite(le)
				if err != nil {
					return nil, err
				}
				out.List = append(out.List, rl)
			}
			return out, nil
		case *expr.IsNullExpr:
			x, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			return &expr.IsNullExpr{E: x, Neg: n.Neg}, nil
		case *expr.CaseExpr:
			out := &expr.CaseExpr{}
			for _, w := range n.Whens {
				c, err := rewrite(w.Cond)
				if err != nil {
					return nil, err
				}
				th, err := rewrite(w.Then)
				if err != nil {
					return nil, err
				}
				out.Whens = append(out.Whens, expr.CaseWhen{Cond: c, Then: th})
			}
			if n.Else != nil {
				el, err := rewrite(n.Else)
				if err != nil {
					return nil, err
				}
				out.Else = el
			}
			return out, nil
		case *expr.FuncCall:
			out := &expr.FuncCall{Name: n.Name, Star: n.Star, Distinct: n.Distinct}
			for _, a := range n.Args {
				ra, err := rewrite(a)
				if err != nil {
					return nil, err
				}
				out.Args = append(out.Args, ra)
			}
			return out, nil
		default:
			return nil, fmt.Errorf("%s must appear in the GROUP BY clause or be used in an aggregate", e)
		}
	}

	newItems := make([]expr.Expr, len(boundItems))
	for i, be := range boundItems {
		ne, err := rewrite(be)
		if err != nil {
			return nil, nil, err
		}
		newItems[i] = ne
	}
	var having expr.Expr
	if boundHaving != nil {
		var err error
		if having, err = rewrite(boundHaving); err != nil {
			return nil, nil, err
		}
	}

	// Aggregate output schema.
	cols := make([]types.Column, 0, len(groups)+len(aggs))
	for i, g := range groups {
		cols = append(cols, types.Column{Name: groupColName(i), Type: inferKind(g, tree.Schema())})
	}
	for i, a := range aggs {
		var k types.Kind
		switch a.Name {
		case "COUNT":
			k = types.KindInt
		case "AVG":
			k = types.KindFloat
		default:
			if a.Arg != nil {
				k = inferKind(a.Arg, tree.Schema())
			}
		}
		cols = append(cols, types.Column{Name: aggColName(i), Type: k})
	}
	// An ungrouped aggregate straight over an analytics function folds
	// into the scan when it can (AnalyticsScan.FoldAggregate): the scan
	// then returns the one row itself.
	out := types.NewSchema(cols...)
	var top exec.Operator
	if as, ok := tree.(*exec.AnalyticsScan); ok && len(groups) == 0 && as.FoldAggregate(aggs, out) {
		top = as
	} else {
		top = exec.NewHashAggregate(tree, groups, aggs, out)
	}
	if having != nil {
		top = exec.NewFilter(top, having)
	}
	return top, newItems, nil
}

func groupColName(i int) string { return fmt.Sprintf("__group%d", i) }
func aggColName(i int) string   { return fmt.Sprintf("__agg%d", i) }

// inferKind derives a best-effort static kind for result-schema display.
func inferKind(e expr.Expr, schema *types.Schema) types.Kind {
	switch n := e.(type) {
	case *expr.Literal:
		return n.Val.Kind
	case *expr.ColumnRef:
		if n.Idx >= 0 && n.Idx < schema.Len() {
			return schema.Columns[n.Idx].Type
		}
	case *expr.PathValueRef:
		return types.KindPath
	case *expr.PathProperty:
		if n.Prop == expr.PropPathString {
			return types.KindString
		}
		return types.KindInt
	case *expr.PathEndpointID:
		return types.KindInt
	case *expr.PathVertexAttr:
		return n.Ref.Kind
	case *expr.PathElemAttr:
		if n.Attr != "" {
			return n.Ref.Kind
		}
	case *expr.BinaryExpr:
		if n.Op.IsComparison() || n.Op == expr.OpAnd || n.Op == expr.OpOr {
			return types.KindBool
		}
		lk, rk := inferKind(n.L, schema), inferKind(n.R, schema)
		if lk == types.KindFloat || rk == types.KindFloat || n.Op == expr.OpDiv {
			if lk == types.KindInt && rk == types.KindInt {
				return types.KindInt
			}
			return types.KindFloat
		}
		return lk
	case *expr.UnaryExpr:
		if n.Op == expr.OpNot {
			return types.KindBool
		}
		return inferKind(n.E, schema)
	case *expr.InExpr:
		return types.KindBool
	case *expr.IsNullExpr:
		return types.KindBool
	case *expr.CaseExpr:
		if len(n.Whens) > 0 {
			return inferKind(n.Whens[0].Then, schema)
		}
	case *expr.FuncCall:
		switch strings.ToUpper(n.Name) {
		case "COUNT", "LENGTH":
			return types.KindInt
		case "AVG", "FLOOR", "CEIL":
			return types.KindFloat
		case "UPPER", "LOWER":
			return types.KindString
		case "SUM", "MIN", "MAX", "ABS", "COALESCE":
			if len(n.Args) > 0 {
				return inferKind(n.Args[0], schema)
			}
		}
	}
	return types.KindString
}
