package exec

import (
	"fmt"
	"strings"

	"grfusion/internal/expr"
	"grfusion/internal/types"
)

// HashJoin is an equi-join: it builds a hash table on the right input's
// keys and probes it with left rows. An optional residual predicate (bound
// to the concatenated schema) filters matches.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []expr.Expr
	Residual            expr.Expr

	schema *types.Schema
}

// NewHashJoin creates a hash join. Key lists must be equal length; keys are
// bound to their side's schema, the residual to left⊕right.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, residual expr.Expr) *HashJoin {
	return &HashJoin{Left: left, Right: right, LeftKeys: leftKeys, RightKeys: rightKeys,
		Residual: residual, schema: left.Schema().Concat(right.Schema())}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Explain implements Operator.
func (j *HashJoin) Explain(*Context) string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = fmt.Sprintf("%s=%s", j.LeftKeys[i], j.RightKeys[i])
	}
	out := "HashJoin " + strings.Join(parts, " AND ")
	if j.Residual != nil {
		out += fmt.Sprintf(" residual=%s", j.Residual)
	}
	return out
}

// Children implements Operator.
func (j *HashJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

func (j *HashJoin) withChildren(cs []Operator) Operator {
	c := *j
	c.Left, c.Right = cs[0], cs[1]
	return &c
}

// Open implements Operator.
func (j *HashJoin) Open(ctx *Context) (Iterator, error) {
	right, err := j.Right.Open(ctx)
	if err != nil {
		return nil, err
	}
	table := make(map[string][]types.Row)
	var charged int64
	for {
		if err := ctx.CheckCancel(); err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		row, err := right.Next()
		if err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		if row == nil {
			break
		}
		key, null, err := joinKey(j.RightKeys, row, ctx.Params)
		if err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		if null {
			continue // NULL keys never join
		}
		b := rowBytes(row) + int64(len(key))
		if err := ctx.Grow(b); err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		charged += b
		table[key] = append(table[key], row)
	}
	right.Close()
	left, err := j.Left.Open(ctx)
	if err != nil {
		ctx.Release(charged)
		return nil, err
	}
	return &hashJoinIter{ctx: ctx, j: j, left: left, table: table, charged: charged}, nil
}

type hashJoinIter struct {
	ctx     *Context
	j       *HashJoin
	left    Iterator
	table   map[string][]types.Row
	charged int64

	leftRow types.Row
	matches []types.Row
	mi      int
}

func (it *hashJoinIter) Next() (types.Row, error) {
	for {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		for it.mi < len(it.matches) {
			r := it.matches[it.mi]
			it.mi++
			joined := types.ConcatRows(it.leftRow, r)
			if it.j.Residual != nil {
				ok, err := expr.EvalBool(it.j.Residual, it.ctx.env(joined))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return joined, nil
		}
		row, err := it.left.Next()
		if err != nil || row == nil {
			return nil, err
		}
		key, null, err := joinKey(it.j.LeftKeys, row, it.ctx.Params)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		it.leftRow = row
		it.matches = it.table[key]
		it.mi = 0
	}
}

func (it *hashJoinIter) Close() {
	it.left.Close()
	it.ctx.Release(it.charged)
	it.charged = 0
}

func joinKey(keys []expr.Expr, row types.Row, params types.Row) (string, bool, error) {
	var sb strings.Builder
	env := &expr.Env{Row: row, Params: params}
	for _, k := range keys {
		v, err := expr.Eval(k, env)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", true, nil
		}
		v.AppendKey(&sb)
		sb.WriteByte(0x1f)
	}
	return sb.String(), false, nil
}

// NestedLoopJoin materializes its right input and pairs every left row with
// every right row, filtering with the On predicate (bound to left⊕right).
// It is the fallback when no equi-join keys exist.
type NestedLoopJoin struct {
	Left, Right Operator
	On          expr.Expr // may be nil for a pure cross product

	schema *types.Schema
}

// NewNestedLoopJoin creates a nested-loop join.
func NewNestedLoopJoin(left, right Operator, on expr.Expr) *NestedLoopJoin {
	return &NestedLoopJoin{Left: left, Right: right, On: on,
		schema: left.Schema().Concat(right.Schema())}
}

// Schema implements Operator.
func (j *NestedLoopJoin) Schema() *types.Schema { return j.schema }

// Explain implements Operator.
func (j *NestedLoopJoin) Explain(*Context) string {
	if j.On == nil {
		return "NestedLoopJoin (cross)"
	}
	return fmt.Sprintf("NestedLoopJoin on=%s", j.On)
}

// Children implements Operator.
func (j *NestedLoopJoin) Children() []Operator { return []Operator{j.Left, j.Right} }

func (j *NestedLoopJoin) withChildren(cs []Operator) Operator {
	c := *j
	c.Left, c.Right = cs[0], cs[1]
	return &c
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Context) (Iterator, error) {
	right, err := j.Right.Open(ctx)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	var charged int64
	for {
		if err := ctx.CheckCancel(); err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		row, err := right.Next()
		if err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		if row == nil {
			break
		}
		b := rowBytes(row)
		if err := ctx.Grow(b); err != nil {
			right.Close()
			ctx.Release(charged)
			return nil, err
		}
		charged += b
		rows = append(rows, row)
	}
	right.Close()
	left, err := j.Left.Open(ctx)
	if err != nil {
		ctx.Release(charged)
		return nil, err
	}
	return &nljIter{ctx: ctx, j: j, left: left, right: rows, ri: len(rows), charged: charged}, nil
}

type nljIter struct {
	ctx     *Context
	j       *NestedLoopJoin
	left    Iterator
	right   []types.Row
	leftRow types.Row
	ri      int
	charged int64
}

func (it *nljIter) Next() (types.Row, error) {
	for {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		for it.ri < len(it.right) {
			joined := types.ConcatRows(it.leftRow, it.right[it.ri])
			it.ri++
			if it.j.On != nil {
				ok, err := expr.EvalBool(it.j.On, it.ctx.env(joined))
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			return joined, nil
		}
		row, err := it.left.Next()
		if err != nil || row == nil {
			return nil, err
		}
		it.leftRow = row
		it.ri = 0
	}
}

func (it *nljIter) Close() {
	it.left.Close()
	it.ctx.Release(it.charged)
	it.charged = 0
}
