package exec

import "grfusion/internal/types"

// Materialize drains its child into an in-memory temp table before
// emitting anything, charging the intermediate-result budget for every
// buffered row.
//
// VoltDB executes each plan fragment into a temporary table rather than
// pipelining rows between operators; wrapping every join output in
// Materialize reproduces that execution model. The paper's SQLGraph
// baseline inherits it — its multi-join traversal queries blow past the
// temp-table budget on skewed graphs (the Twitter experiment of §7.2) —
// while GRFusion's lazy PathScan never materializes intermediate paths.
type Materialize struct {
	Child Operator
}

// NewMaterialize wraps child with a temp-table barrier.
func NewMaterialize(child Operator) *Materialize { return &Materialize{Child: child} }

// Schema implements Operator.
func (m *Materialize) Schema() *types.Schema { return m.Child.Schema() }

// Explain implements Operator.
func (m *Materialize) Explain(*Context) string { return "Materialize (temp table)" }

// Children implements Operator.
func (m *Materialize) Children() []Operator { return []Operator{m.Child} }

func (m *Materialize) withChildren(cs []Operator) Operator { c := *m; c.Child = cs[0]; return &c }

// Open implements Operator.
func (m *Materialize) Open(ctx *Context) (Iterator, error) {
	child, err := m.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer child.Close()
	var rows []types.Row
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
		b := rowBytes(row)
		if err := ctx.Grow(b); err != nil {
			ctx.Release(charged)
			return nil, err
		}
		charged += b
		rows = append(rows, row)
	}
	return &sliceIter{ctx: ctx, rows: rows, charged: charged}, nil
}
