package expr

import (
	"fmt"
	"math"
	"strings"

	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// Env is the evaluation environment: one input tuple plus the statement's
// parameter values. Path values ride in the tuple as KindPath columns (the
// unified extended-tuple interface of §5.2).
type Env struct {
	Row types.Row
	// Params holds the positional arguments of a prepared statement.
	Params types.Row
	// Graphs must be set to evaluate a path attribute.
	Graphs Graphs
}

// Eval evaluates a bound expression against env.
func Eval(e Expr, env *Env) (types.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *Param:
		if n.Idx < 0 || n.Idx >= len(env.Params) {
			return types.Null(), fmt.Errorf("statement parameter %s has no value (%d supplied)",
				n, len(env.Params))
		}
		return env.Params[n.Idx], nil
	case *ColumnRef:
		if n.Idx < 0 || n.Idx >= len(env.Row) {
			return types.Null(), fmt.Errorf("unbound column reference %s", n)
		}
		return env.Row[n.Idx], nil
	case *BinaryExpr:
		return evalBinary(n, env)
	case *UnaryExpr:
		return evalUnary(n, env)
	case *InExpr:
		return evalIn(n, env)
	case *IsNullExpr:
		v, err := Eval(n.E, env)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(v.IsNull() != n.Neg), nil
	case *FuncCall:
		return evalFunc(n, env)
	case *CaseExpr:
		for _, w := range n.Whens {
			c, err := Eval(w.Cond, env)
			if err != nil {
				return types.Null(), err
			}
			if c.Truthy() {
				return Eval(w.Then, env)
			}
		}
		if n.Else != nil {
			return Eval(n.Else, env)
		}
		return types.Null(), nil
	case *PathValueRef:
		return env.Row[n.Col], nil
	case *PathProperty:
		p, err := pathAt(env.Row, n.Col)
		if err != nil {
			return types.Null(), err
		}
		switch n.Prop {
		case PropLength:
			return types.NewInt(int64(p.Len())), nil
		case PropPathString:
			return types.NewString(p.String()), nil
		case PropStartVertexID:
			return types.NewInt(p.Start().ID), nil
		default:
			return types.NewInt(p.End().ID), nil
		}
	case *PathVertexAttr:
		p, err := pathAt(env.Row, n.Col)
		if err != nil {
			return types.Null(), err
		}
		v := p.Start()
		if n.End {
			v = p.End()
		}
		return env.Graphs.Accessor(n.View).VertexAttr(v, n.Ref)
	case *PathEndpointID:
		p, err := pathAt(env.Row, n.Col)
		if err != nil {
			return types.Null(), err
		}
		if n.Idx >= p.Len() {
			return types.Null(), nil
		}
		if n.End {
			return types.NewInt(p.StepEnd(n.Idx).ID), nil
		}
		return types.NewInt(p.StepStart(n.Idx).ID), nil
	case *PathElemAttr:
		if n.Quantified() {
			return types.Null(), fmt.Errorf("quantified reference %s evaluated as a scalar", n)
		}
		p, err := pathAt(env.Row, n.Col)
		if err != nil {
			return types.Null(), err
		}
		if n.Rng.Start >= n.elemCount(p) {
			return types.Null(), nil
		}
		return n.elemValue(env.Graphs.Accessor(n.View), p, n.Rng.Start)
	case *RawRef:
		return types.Null(), fmt.Errorf("unbound reference %s", n)
	default:
		return types.Null(), fmt.Errorf("cannot evaluate %T", e)
	}
}

// EvalBool evaluates e and reports whether it is TRUE (NULL and
// non-boolean results are false).
func EvalBool(e Expr, env *Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

func pathAt(row types.Row, col int) (*graph.Path, error) {
	if col < 0 || col >= len(row) {
		return nil, fmt.Errorf("unbound path column %d", col)
	}
	v := row[col]
	p, ok := v.Ref.(*graph.Path)
	if v.Kind != types.KindPath || !ok {
		return nil, fmt.Errorf("column %d does not hold a path (kind %s)", col, v.Kind)
	}
	return p, nil
}

func (n *PathElemAttr) elemCount(p *graph.Path) int {
	if n.Elem == ElemVertexes {
		return len(p.Verts)
	}
	return len(p.Edges)
}

func (n *PathElemAttr) elemValue(acc GraphAccessor, p *graph.Path, i int) (types.Value, error) {
	if n.Elem == ElemVertexes {
		return acc.VertexAttr(p.Verts[i], n.Ref)
	}
	return acc.EdgeAttr(p.Edges[i], n.Ref)
}

// quantifiedPositions returns the element positions a quantified range
// covers on path p, and whether the range is satisfiable at all (a range
// whose start position does not exist on the path fails the predicate, the
// semantics §6.1's length inference relies on).
func (n *PathElemAttr) quantifiedPositions(p *graph.Path) (lo, hi int, ok bool) {
	count := n.elemCount(p)
	lo = n.Rng.Start
	switch {
	case n.Rng.All:
		return 0, count - 1, true
	case n.Rng.Wildcard:
		if lo >= count {
			return 0, 0, false
		}
		return lo, count - 1, true
	default:
		if n.Rng.End >= count {
			return 0, 0, false
		}
		return lo, n.Rng.End, true
	}
}

func evalBinary(b *BinaryExpr, env *Env) (types.Value, error) {
	if b.Op == OpAnd || b.Op == OpOr {
		l, err := Eval(b.L, env)
		if err != nil {
			return types.Null(), err
		}
		if b.Op == OpAnd && !l.Truthy() {
			return types.NewBool(false), nil
		}
		if b.Op == OpOr && l.Truthy() {
			return types.NewBool(true), nil
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(r.Truthy()), nil
	}
	if b.Op.IsComparison() {
		// Quantified path-range comparisons: ∀ elements in range.
		if pe, ok := b.L.(*PathElemAttr); ok && pe.Quantified() {
			return evalQuantifiedCompare(pe, b.Op, b.R, env, false)
		}
		if pe, ok := b.R.(*PathElemAttr); ok && pe.Quantified() {
			return evalQuantifiedCompare(pe, b.Op, b.L, env, true)
		}
		l, err := Eval(b.L, env)
		if err != nil {
			return types.Null(), err
		}
		r, err := Eval(b.R, env)
		if err != nil {
			return types.Null(), err
		}
		return types.NewBool(compare(b.Op, l, r)), nil
	}
	// Arithmetic.
	l, err := Eval(b.L, env)
	if err != nil {
		return types.Null(), err
	}
	r, err := Eval(b.R, env)
	if err != nil {
		return types.Null(), err
	}
	return arith(b.Op, l, r)
}

func evalQuantifiedCompare(pe *PathElemAttr, op BinOp, other Expr, env *Env, flipped bool) (types.Value, error) {
	p, err := pathAt(env.Row, pe.Col)
	if err != nil {
		return types.Null(), err
	}
	o, err := Eval(other, env)
	if err != nil {
		return types.Null(), err
	}
	lo, hi, ok := pe.quantifiedPositions(p)
	if !ok {
		return types.NewBool(false), nil
	}
	acc := env.Graphs.Accessor(pe.View)
	for i := lo; i <= hi; i++ {
		v, err := pe.elemValue(acc, p, i)
		if err != nil {
			return types.Null(), err
		}
		var res bool
		if flipped {
			res = compare(op, o, v)
		} else {
			res = compare(op, v, o)
		}
		if !res {
			return types.NewBool(false), nil
		}
	}
	return types.NewBool(true), nil
}

// CompareOp applies a comparison operator under the engine's two-valued
// semantics: NULL or incomparable operands yield false. The executor's
// pushed-down traversal filters reuse it.
func CompareOp(op BinOp, l, r types.Value) bool { return compare(op, l, r) }

func compare(op BinOp, l, r types.Value) bool {
	if op == OpLike {
		if l.Kind != types.KindString || r.Kind != types.KindString {
			return false
		}
		return MatchLike(l.S, r.S)
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	if !types.Comparable(l.Kind, r.Kind) {
		return false
	}
	c := types.Compare(l, r)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

func arith(op BinOp, l, r types.Value) (types.Value, error) {
	if l.IsNull() || r.IsNull() {
		return types.Null(), nil
	}
	if !l.IsNumeric() || !r.IsNumeric() {
		return types.Null(), fmt.Errorf("%s applied to non-numeric operands (%s, %s)",
			op, l.Kind, r.Kind)
	}
	if op == OpMod {
		if l.Kind != types.KindInt || r.Kind != types.KindInt {
			return types.Null(), fmt.Errorf("%% requires BIGINT operands")
		}
		if r.I == 0 {
			return types.Null(), fmt.Errorf("division by zero")
		}
		return types.NewInt(l.I % r.I), nil
	}
	if l.Kind == types.KindInt && r.Kind == types.KindInt {
		switch op {
		case OpAdd:
			return types.NewInt(l.I + r.I), nil
		case OpSub:
			return types.NewInt(l.I - r.I), nil
		case OpMul:
			return types.NewInt(l.I * r.I), nil
		default: // OpDiv
			if r.I == 0 {
				return types.Null(), fmt.Errorf("division by zero")
			}
			return types.NewInt(l.I / r.I), nil
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpAdd:
		return types.NewFloat(lf + rf), nil
	case OpSub:
		return types.NewFloat(lf - rf), nil
	case OpMul:
		return types.NewFloat(lf * rf), nil
	default:
		if rf == 0 {
			return types.Null(), fmt.Errorf("division by zero")
		}
		return types.NewFloat(lf / rf), nil
	}
}

func evalUnary(u *UnaryExpr, env *Env) (types.Value, error) {
	v, err := Eval(u.E, env)
	if err != nil {
		return types.Null(), err
	}
	if u.Op == OpNot {
		return types.NewBool(!v.Truthy()), nil
	}
	switch v.Kind {
	case types.KindNull:
		return v, nil
	case types.KindInt:
		return types.NewInt(-v.I), nil
	case types.KindFloat:
		return types.NewFloat(-v.F), nil
	default:
		return types.Null(), fmt.Errorf("unary minus on %s", v.Kind)
	}
}

func evalIn(in *InExpr, env *Env) (types.Value, error) {
	check := func(v types.Value) (bool, error) {
		for _, le := range in.List {
			lv, err := Eval(le, env)
			if err != nil {
				return false, err
			}
			if compare(OpEq, v, lv) {
				return true, nil
			}
		}
		return false, nil
	}
	if pe, ok := in.E.(*PathElemAttr); ok && pe.Quantified() {
		p, err := pathAt(env.Row, pe.Col)
		if err != nil {
			return types.Null(), err
		}
		lo, hi, ok := pe.quantifiedPositions(p)
		if !ok {
			return types.NewBool(in.Neg), nil
		}
		acc := env.Graphs.Accessor(pe.View)
		for i := lo; i <= hi; i++ {
			v, err := pe.elemValue(acc, p, i)
			if err != nil {
				return types.Null(), err
			}
			hit, err := check(v)
			if err != nil {
				return types.Null(), err
			}
			if hit == in.Neg {
				return types.NewBool(false), nil
			}
		}
		return types.NewBool(true), nil
	}
	v, err := Eval(in.E, env)
	if err != nil {
		return types.Null(), err
	}
	hit, err := check(v)
	if err != nil {
		return types.Null(), err
	}
	return types.NewBool(hit != in.Neg), nil
}

// MatchLike implements the SQL LIKE pattern language: % matches any
// sequence (including empty), _ matches exactly one character. Matching is
// case-sensitive, as in VoltDB.
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer matcher with backtracking on the last %.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func evalFunc(f *FuncCall, env *Env) (types.Value, error) {
	name := strings.ToUpper(f.Name)
	if AggNames[name] {
		if f.IsAggregate() {
			return types.Null(), fmt.Errorf("aggregate %s must be planned by a GROUP BY pipeline", f)
		}
		return evalPathAggregate(name, f.Args[0].(*PathElemAttr), env)
	}
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := Eval(a, env)
		if err != nil {
			return types.Null(), err
		}
		args[i] = v
	}
	switch name {
	case "ABS":
		if err := wantArgs(f, args, 1); err != nil {
			return types.Null(), err
		}
		switch args[0].Kind {
		case types.KindNull:
			return args[0], nil
		case types.KindInt:
			if args[0].I < 0 {
				return types.NewInt(-args[0].I), nil
			}
			return args[0], nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(args[0].F)), nil
		}
		return types.Null(), fmt.Errorf("ABS on %s", args[0].Kind)
	case "FLOOR", "CEIL":
		if err := wantArgs(f, args, 1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		if !args[0].IsNumeric() {
			return types.Null(), fmt.Errorf("%s on %s", name, args[0].Kind)
		}
		fv := args[0].AsFloat()
		if name == "FLOOR" {
			return types.NewFloat(math.Floor(fv)), nil
		}
		return types.NewFloat(math.Ceil(fv)), nil
	case "UPPER", "LOWER":
		if err := wantArgs(f, args, 1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		if args[0].Kind != types.KindString {
			return types.Null(), fmt.Errorf("%s on %s", name, args[0].Kind)
		}
		if name == "UPPER" {
			return types.NewString(strings.ToUpper(args[0].S)), nil
		}
		return types.NewString(strings.ToLower(args[0].S)), nil
	case "LENGTH":
		if err := wantArgs(f, args, 1); err != nil {
			return types.Null(), err
		}
		if args[0].IsNull() {
			return args[0], nil
		}
		if args[0].Kind != types.KindString {
			return types.Null(), fmt.Errorf("LENGTH on %s", args[0].Kind)
		}
		return types.NewInt(int64(len(args[0].S))), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return types.Null(), nil
	default:
		return types.Null(), fmt.Errorf("unknown function %s", f.Name)
	}
}

func wantArgs(f *FuncCall, args []types.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s expects %d argument(s), got %d", strings.ToUpper(f.Name), n, len(args))
	}
	return nil
}

// evalPathAggregate computes SUM/AVG/MIN/MAX/COUNT over all elements of a
// path (SUM(PS.Edges.Weight), COUNT(PS.Edges)). NULL attribute values are
// skipped, as in relational aggregates.
func evalPathAggregate(name string, pe *PathElemAttr, env *Env) (types.Value, error) {
	p, err := pathAt(env.Row, pe.Col)
	if err != nil {
		return types.Null(), err
	}
	count := pe.elemCount(p)
	if pe.Attr == "" {
		if name != "COUNT" {
			return types.Null(), fmt.Errorf("%s(%s) requires an attribute", name, pe)
		}
		return types.NewInt(int64(count)), nil
	}
	acc := env.Graphs.Accessor(pe.View)
	agg := NewAggState(name)
	for i := 0; i < count; i++ {
		v, err := pe.elemValue(acc, p, i)
		if err != nil {
			return types.Null(), err
		}
		if err := agg.Add(v); err != nil {
			return types.Null(), err
		}
	}
	return agg.Result(), nil
}
