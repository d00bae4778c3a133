package exec

import (
	"fmt"
	"sort"
	"strings"

	"grfusion/internal/expr"
	"grfusion/internal/types"
)

// Filter passes rows satisfying the predicate.
type Filter struct {
	Child Operator
	Pred  expr.Expr
}

// NewFilter wraps child with a predicate (bound to child's schema).
func NewFilter(child Operator, pred expr.Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Explain implements Operator.
func (f *Filter) Explain(*Context) string { return fmt.Sprintf("Filter %s", f.Pred) }

// Children implements Operator.
func (f *Filter) Children() []Operator { return []Operator{f.Child} }

func (f *Filter) withChildren(cs []Operator) Operator { c := *f; c.Child = cs[0]; return &c }

// Open implements Operator.
func (f *Filter) Open(ctx *Context) (Iterator, error) {
	child, err := f.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &filterIter{ctx: ctx, f: f, child: child}, nil
}

type filterIter struct {
	ctx   *Context
	f     *Filter
	child Iterator
}

func (it *filterIter) Next() (types.Row, error) {
	for {
		row, err := it.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		ok, err := expr.EvalBool(it.f.Pred, it.ctx.env(row))
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}
func (it *filterIter) Close() { it.child.Close() }

// Project computes the output expressions for each input row.
type Project struct {
	Child Operator
	Exprs []expr.Expr
	Out   *types.Schema
}

// NewProject creates a projection with the given output schema (one column
// per expression).
func NewProject(child Operator, exprs []expr.Expr, out *types.Schema) *Project {
	return &Project{Child: child, Exprs: exprs, Out: out}
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.Out }

// Explain implements Operator.
func (p *Project) Explain(*Context) string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (p *Project) Children() []Operator { return []Operator{p.Child} }

func (p *Project) withChildren(cs []Operator) Operator { c := *p; c.Child = cs[0]; return &c }

// Open implements Operator.
func (p *Project) Open(ctx *Context) (Iterator, error) {
	child, err := p.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &projectIter{ctx: ctx, p: p, child: child}, nil
}

type projectIter struct {
	ctx   *Context
	p     *Project
	child Iterator
}

func (it *projectIter) Next() (types.Row, error) {
	row, err := it.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(types.Row, len(it.p.Exprs))
	env := it.ctx.env(row)
	for i, e := range it.p.Exprs {
		v, err := expr.Eval(e, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
func (it *projectIter) Close() { it.child.Close() }

// Limit emits at most N rows after skipping Offset.
type Limit struct {
	Child  Operator
	N      int // negative means no limit
	Offset int
}

// NewLimit wraps child with LIMIT/OFFSET.
func NewLimit(child Operator, n, offset int) *Limit {
	return &Limit{Child: child, N: n, Offset: offset}
}

// Schema implements Operator.
func (l *Limit) Schema() *types.Schema { return l.Child.Schema() }

// Explain implements Operator.
func (l *Limit) Explain(*Context) string { return fmt.Sprintf("Limit %d offset %d", l.N, l.Offset) }

// Children implements Operator.
func (l *Limit) Children() []Operator { return []Operator{l.Child} }

func (l *Limit) withChildren(cs []Operator) Operator { c := *l; c.Child = cs[0]; return &c }

// Open implements Operator.
func (l *Limit) Open(ctx *Context) (Iterator, error) {
	child, err := l.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &limitIter{l: l, child: child, skip: l.Offset}, nil
}

type limitIter struct {
	l     *Limit
	child Iterator
	skip  int
	n     int
	done  bool
}

func (it *limitIter) Next() (types.Row, error) {
	if it.done {
		return nil, nil
	}
	for it.skip > 0 {
		row, err := it.child.Next()
		if err != nil || row == nil {
			it.done = true
			return nil, err
		}
		it.skip--
	}
	if it.l.N >= 0 && it.n >= it.l.N {
		it.done = true
		return nil, nil
	}
	row, err := it.child.Next()
	if err != nil || row == nil {
		it.done = true
		return nil, err
	}
	it.n++
	return row, nil
}
func (it *limitIter) Close() { it.child.Close() }

// SortKey is one ordering key.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort materializes and orders its input.
type Sort struct {
	Child Operator
	Keys  []SortKey
}

// NewSort creates a sort operator.
func NewSort(child Operator, keys []SortKey) *Sort { return &Sort{Child: child, Keys: keys} }

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Explain implements Operator.
func (s *Sort) Explain(*Context) string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.E.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (s *Sort) Children() []Operator { return []Operator{s.Child} }

func (s *Sort) withChildren(cs []Operator) Operator { c := *s; c.Child = cs[0]; return &c }

// Open implements Operator.
func (s *Sort) Open(ctx *Context) (Iterator, error) {
	child, err := s.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer child.Close()
	type sortRow struct {
		row  types.Row
		keys types.Row
	}
	var rows []sortRow
	var charged int64
	for {
		if err := ctx.CheckCancel(); err != nil {
			ctx.Release(charged)
			return nil, err
		}
		row, err := child.Next()
		if err != nil {
			ctx.Release(charged)
			return nil, err
		}
		if row == nil {
			break
		}
		keys := make(types.Row, len(s.Keys))
		env := ctx.env(row)
		for i, k := range s.Keys {
			v, err := expr.Eval(k.E, env)
			if err != nil {
				ctx.Release(charged)
				return nil, err
			}
			keys[i] = v
		}
		b := rowBytes(row)
		if err := ctx.Grow(b); err != nil {
			ctx.Release(charged)
			return nil, err
		}
		charged += b
		rows = append(rows, sortRow{row: row, keys: keys})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range s.Keys {
			c := types.Compare(rows[i].keys[k], rows[j].keys[k])
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]types.Row, len(rows))
	for i := range rows {
		out[i] = rows[i].row
	}
	return &sliceIter{ctx: ctx, rows: out, charged: charged}, nil
}

type sliceIter struct {
	ctx     *Context
	rows    []types.Row
	i       int
	charged int64
}

func (it *sliceIter) Next() (types.Row, error) {
	if it.i >= len(it.rows) {
		return nil, nil
	}
	r := it.rows[it.i]
	it.i++
	return r, nil
}
func (it *sliceIter) Close() {
	if it.charged > 0 {
		it.ctx.Release(it.charged)
		it.charged = 0
	}
}

// Distinct removes duplicate rows (path values compare by rendered string).
type Distinct struct {
	Child Operator
}

// NewDistinct wraps child with duplicate elimination.
func NewDistinct(child Operator) *Distinct { return &Distinct{Child: child} }

// Schema implements Operator.
func (d *Distinct) Schema() *types.Schema { return d.Child.Schema() }

// Explain implements Operator.
func (d *Distinct) Explain(*Context) string { return "Distinct" }

// Children implements Operator.
func (d *Distinct) Children() []Operator { return []Operator{d.Child} }

func (d *Distinct) withChildren(cs []Operator) Operator { c := *d; c.Child = cs[0]; return &c }

// Open implements Operator.
func (d *Distinct) Open(ctx *Context) (Iterator, error) {
	child, err := d.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	return &distinctIter{ctx: ctx, child: child, seen: map[string]bool{}}, nil
}

type distinctIter struct {
	ctx     *Context
	child   Iterator
	seen    map[string]bool
	charged int64
}

func (it *distinctIter) Next() (types.Row, error) {
	for {
		row, err := it.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		key := distinctKey(row)
		if it.seen[key] {
			continue
		}
		it.seen[key] = true
		b := int64(len(key))
		if err := it.ctx.Grow(b); err != nil {
			return nil, err
		}
		it.charged += b
		return row, nil
	}
}
func (it *distinctIter) Close() {
	it.child.Close()
	it.ctx.Release(it.charged)
	it.charged = 0
}

func distinctKey(row types.Row) string {
	var sb strings.Builder
	for _, v := range row {
		if v.Kind >= types.KindVertex {
			sb.WriteString(v.String())
		} else {
			v.AppendKey(&sb)
		}
		sb.WriteByte(0x1f)
	}
	return sb.String()
}
