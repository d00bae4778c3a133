package exec

import (
	"strings"

	"grfusion/internal/expr"
	"grfusion/internal/types"
)

// AggSpec describes one aggregate computed by HashAggregate.
type AggSpec struct {
	// Name is the aggregate function (COUNT/SUM/AVG/MIN/MAX, upper-cased).
	Name string
	// Arg is the input expression bound to the child schema; nil means
	// COUNT(*) semantics (count rows).
	Arg expr.Expr
	// Distinct folds each distinct value once.
	Distinct bool
}

// String renders the aggregate call as the SQL reads: COUNT(*),
// MAX(PR.rank), COUNT(DISTINCT v.g).
func (s AggSpec) String() string {
	if s.Arg == nil {
		return s.Name + "(*)"
	}
	if s.Distinct {
		return s.Name + "(DISTINCT " + s.Arg.String() + ")"
	}
	return s.Name + "(" + s.Arg.String() + ")"
}

// HashAggregate groups its input by the GroupBy expressions and computes
// the aggregates per group. Output rows are the group values followed by
// the aggregate results, in first-seen group order. With no GroupBy
// expressions a single global group is produced even for empty input.
type HashAggregate struct {
	Child   Operator
	GroupBy []expr.Expr
	Aggs    []AggSpec
	Out     *types.Schema
}

// NewHashAggregate creates a grouping operator with the given output schema
// (len(GroupBy)+len(Aggs) columns).
func NewHashAggregate(child Operator, groupBy []expr.Expr, aggs []AggSpec, out *types.Schema) *HashAggregate {
	return &HashAggregate{Child: child, GroupBy: groupBy, Aggs: aggs, Out: out}
}

// Schema implements Operator.
func (a *HashAggregate) Schema() *types.Schema { return a.Out }

// Explain implements Operator.
func (a *HashAggregate) Explain(*Context) string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, s := range a.Aggs {
		parts = append(parts, s.String())
	}
	return "HashAggregate " + strings.Join(parts, ", ")
}

// Children implements Operator.
func (a *HashAggregate) Children() []Operator { return []Operator{a.Child} }

func (a *HashAggregate) withChildren(cs []Operator) Operator { c := *a; c.Child = cs[0]; return &c }

type aggGroup struct {
	groupVals types.Row
	states    []*expr.AggState
}

// Open implements Operator.
func (a *HashAggregate) Open(ctx *Context) (Iterator, error) {
	child, err := a.Child.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer child.Close()

	groups := make(map[string]*aggGroup)
	var order []string
	var charged int64
	fail := func(err error) (Iterator, error) {
		ctx.Release(charged)
		return nil, err
	}
	newGroup := func(vals types.Row) *aggGroup {
		g := &aggGroup{groupVals: vals, states: make([]*expr.AggState, len(a.Aggs))}
		for i, s := range a.Aggs {
			if s.Distinct {
				g.states[i] = expr.NewDistinctAggState(s.Name)
			} else {
				g.states[i] = expr.NewAggState(s.Name)
			}
		}
		return g
	}
	// One Env and one key Builder serve every row, and with no GROUP BY
	// the one group is found once, so such a row allocates nothing. Reset
	// drops the Builder's buffer rather than reusing it, so the keys
	// already taken stay intact.
	env := ctx.env(nil)
	var sb strings.Builder
	var global *aggGroup // the group every row joins when there is no GROUP BY
	for {
		if err := ctx.CheckCancel(); err != nil {
			return fail(err)
		}
		row, err := child.Next()
		if err != nil {
			return fail(err)
		}
		if row == nil {
			break
		}
		env.Row = row
		g := global
		if g == nil {
			vals := make(types.Row, len(a.GroupBy))
			sb.Reset()
			for i, ge := range a.GroupBy {
				v, err := expr.Eval(ge, env)
				if err != nil {
					return fail(err)
				}
				vals[i] = v
				v.AppendKey(&sb)
				sb.WriteByte(0x1f)
			}
			key := sb.String()
			var ok bool
			if g, ok = groups[key]; !ok {
				g = newGroup(vals)
				groups[key] = g
				order = append(order, key)
				b := rowBytes(vals) + int64(len(key)) + 64
				if err := ctx.Grow(b); err != nil {
					return fail(err)
				}
				charged += b
			}
			if len(a.GroupBy) == 0 {
				global = g
			}
		}
		for i, s := range a.Aggs {
			var v types.Value
			if s.Arg == nil {
				v = types.NewInt(1) // COUNT(*): any non-null marker
			} else {
				v, err = expr.Eval(s.Arg, env)
				if err != nil {
					return fail(err)
				}
			}
			if err := g.states[i].Add(v); err != nil {
				return fail(err)
			}
		}
	}
	if len(a.GroupBy) == 0 && len(order) == 0 {
		groups[""] = newGroup(types.Row{})
		order = append(order, "")
	}
	out := make([]types.Row, 0, len(order))
	for _, key := range order {
		g := groups[key]
		row := make(types.Row, 0, len(g.groupVals)+len(g.states))
		row = append(row, g.groupVals...)
		for _, st := range g.states {
			row = append(row, st.Result())
		}
		out = append(out, row)
	}
	return &sliceIter{ctx: ctx, rows: out, charged: charged}, nil
}
