package expr

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// fakeAcc serves vertex/edge attributes from in-memory maps, standing in
// for a catalog.GraphViewAt in unit tests. A resolved reference carries the
// map key.
type fakeAcc struct {
	vattrs map[int64]map[string]types.Value
	eattrs map[int64]map[string]types.Value
}

func (a *fakeAcc) ResolveAttr(elem ElemKind, name string) (AttrRef, error) {
	attrs := a.eattrs
	if elem == ElemVertexes {
		attrs = a.vattrs
	}
	for _, m := range attrs {
		for k, v := range m {
			if strings.EqualFold(k, name) {
				return AttrRef{Name: k, Kind: v.Kind}, nil
			}
		}
		break
	}
	return AttrRef{}, fmt.Errorf("no attr %s", name)
}
func (a *fakeAcc) VertexAttr(v *graph.Vertex, ref AttrRef) (types.Value, error) {
	if val, ok := a.vattrs[v.ID][ref.Name]; ok {
		return val, nil
	}
	return types.Null(), fmt.Errorf("no vertex attr %s", ref.Name)
}
func (a *fakeAcc) EdgeAttr(e *graph.Edge, ref AttrRef) (types.Value, error) {
	if val, ok := a.eattrs[e.ID][ref.Name]; ok {
		return val, nil
	}
	return types.Null(), fmt.Errorf("no edge attr %s", ref.Name)
}

// fixture: path 1 -[10]-> 2 -[11]-> 3 with edge weights 4, 6 and vertex
// names a, b, c.
func pathFixture() (*graph.Path, *fakeAcc) {
	g := graph.New("t", true)
	v1, _ := g.AddVertex(1, 1)
	v2, _ := g.AddVertex(2, 2)
	v3, _ := g.AddVertex(3, 3)
	e1, _ := g.AddEdge(10, 1, 2, 1)
	e2, _ := g.AddEdge(11, 2, 3, 2)
	p := &graph.Path{Edges: []*graph.Edge{e1, e2}, Verts: []*graph.Vertex{v1, v2, v3}}
	acc := &fakeAcc{
		vattrs: map[int64]map[string]types.Value{
			1: {"ID": types.NewInt(1), "name": types.NewString("a")},
			2: {"ID": types.NewInt(2), "name": types.NewString("b")},
			3: {"ID": types.NewInt(3), "name": types.NewString("c")},
		},
		eattrs: map[int64]map[string]types.Value{
			10: {"ID": types.NewInt(10), "weight": types.NewInt(4), "lbl": types.NewString("x")},
			11: {"ID": types.NewInt(11), "weight": types.NewInt(6), "lbl": types.NewString("y")},
		},
	}
	return p, acc
}

// pathEnv builds a schema [u.job VARCHAR, ps.__path PATH], a row carrying
// the fixture path, and a ready binder.
func pathEnv(t *testing.T) (*Binder, *Env, *graph.Path) {
	t.Helper()
	p, acc := pathFixture()
	schema := types.NewSchema(
		types.Column{Qualifier: "u", Name: "job", Type: types.KindString},
		types.Column{Qualifier: "ps", Name: "__path", Type: types.KindPath},
	)
	b := NewBinder(schema).WithPath("PS", PathBinding{Col: 1, Acc: acc})
	env := &Env{Row: types.Row{types.NewString("Lawyer"), types.NewRef(types.KindPath, p)}}
	return b, env, p
}

func bindEval(t *testing.T, b *Binder, env *Env, e Expr) types.Value {
	t.Helper()
	be, err := b.Bind(e)
	if err != nil {
		t.Fatalf("bind %s: %v", e, err)
	}
	v, err := Eval(be, env)
	if err != nil {
		t.Fatalf("eval %s: %v", be, err)
	}
	return v
}

func ref(parts ...RefPart) *RawRef { return &RawRef{Parts: parts} }
func part(name string) RefPart     { return RefPart{Name: name} }
func idx(name string, i int) RefPart {
	return RefPart{Name: name, HasIndex: true, Start: i, End: i}
}
func rangePart(name string, i, j int) RefPart {
	return RefPart{Name: name, HasIndex: true, Start: i, End: j}
}
func wild(name string, i int) RefPart {
	return RefPart{Name: name, HasIndex: true, Start: i, End: -1, Wildcard: true}
}
func lit(v types.Value) *Literal { return &Literal{Val: v} }

func TestLiteralAndColumn(t *testing.T) {
	b, env, _ := pathEnv(t)
	if v := bindEval(t, b, env, lit(types.NewInt(7))); v.I != 7 {
		t.Errorf("literal = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("u"), part("job"))); v.S != "Lawyer" {
		t.Errorf("u.job = %v", v)
	}
	// Unqualified resolution.
	if v := bindEval(t, b, env, ref(part("job"))); v.S != "Lawyer" {
		t.Errorf("job = %v", v)
	}
	if _, err := b.Bind(ref(part("ghost"))); err == nil {
		t.Error("unknown column bound")
	}
}

func TestPathProperties(t *testing.T) {
	b, env, p := pathEnv(t)
	if v := bindEval(t, b, env, ref(part("PS"), part("Length"))); v.I != 2 {
		t.Errorf("Length = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), part("PathString"))); v.S != p.String() {
		t.Errorf("PathString = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), part("StartVertexId"))); v.I != 1 {
		t.Errorf("StartVertexId = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), part("EndVertexId"))); v.I != 3 {
		t.Errorf("EndVertexId = %v", v)
	}
	// Bare alias yields the path value.
	if v := bindEval(t, b, env, ref(part("PS"))); v.Kind != types.KindPath {
		t.Errorf("bare PS kind = %v", v.Kind)
	}
}

func TestPathVertexAttr(t *testing.T) {
	b, env, _ := pathEnv(t)
	if v := bindEval(t, b, env, ref(part("PS"), part("StartVertex"), part("name"))); v.S != "a" {
		t.Errorf("StartVertex.name = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), part("EndVertex"), part("Id"))); v.I != 3 {
		t.Errorf("EndVertex.Id = %v", v)
	}
	if _, err := b.Bind(ref(part("PS"), part("StartVertex"), part("nosuch"))); err == nil {
		t.Error("unknown vertex attr bound")
	}
}

func TestPathSingleElemAttr(t *testing.T) {
	b, env, _ := pathEnv(t)
	if v := bindEval(t, b, env, ref(part("PS"), idx("Edges", 0), part("weight"))); v.I != 4 {
		t.Errorf("Edges[0].weight = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), idx("Vertexes", 1), part("name"))); v.S != "b" {
		t.Errorf("Vertexes[1].name = %v", v)
	}
	// Out-of-range single index is NULL.
	if v := bindEval(t, b, env, ref(part("PS"), idx("Edges", 9), part("weight"))); !v.IsNull() {
		t.Errorf("Edges[9].weight = %v, want NULL", v)
	}
}

func TestPathEndpointIDs(t *testing.T) {
	b, env, _ := pathEnv(t)
	if v := bindEval(t, b, env, ref(part("PS"), idx("Edges", 1), part("EndVertex"))); v.I != 3 {
		t.Errorf("Edges[1].EndVertex = %v", v)
	}
	if v := bindEval(t, b, env, ref(part("PS"), idx("Edges", 0), part("StartVertex"))); v.I != 1 {
		t.Errorf("Edges[0].StartVertex = %v", v)
	}
	// Triangle-closure style predicate.
	e := &BinaryExpr{Op: OpEq,
		L: ref(part("PS"), idx("Edges", 1), part("EndVertex")),
		R: lit(types.NewInt(3))}
	if v := bindEval(t, b, env, e); !v.Truthy() {
		t.Error("closure predicate false")
	}
}

func TestQuantifiedRangeComparisons(t *testing.T) {
	b, env, _ := pathEnv(t)
	// All edge weights > 3 holds (4, 6).
	e := &BinaryExpr{Op: OpGt,
		L: ref(part("PS"), wild("Edges", 0), part("weight")), R: lit(types.NewInt(3))}
	if v := bindEval(t, b, env, e); !v.Truthy() {
		t.Error("∀ weight > 3 must hold")
	}
	// All edge weights > 5 fails (edge 0 has 4).
	e = &BinaryExpr{Op: OpGt,
		L: ref(part("PS"), wild("Edges", 0), part("weight")), R: lit(types.NewInt(5))}
	if v := bindEval(t, b, env, e); v.Truthy() {
		t.Error("∀ weight > 5 must fail")
	}
	// Flipped operand side: 5 < all weights from position 1.
	e = &BinaryExpr{Op: OpLt,
		L: lit(types.NewInt(5)), R: ref(part("PS"), wild("Edges", 1), part("weight"))}
	if v := bindEval(t, b, env, e); !v.Truthy() {
		t.Error("5 < Edges[1..*].weight must hold")
	}
	// A range whose start is beyond the path length is unsatisfiable.
	e = &BinaryExpr{Op: OpGt,
		L: ref(part("PS"), wild("Edges", 5), part("weight")), R: lit(types.NewInt(0))}
	if v := bindEval(t, b, env, e); v.Truthy() {
		t.Error("Edges[5..*] on a 2-edge path must be false")
	}
	// Closed range exceeding the length is unsatisfiable too.
	e = &BinaryExpr{Op: OpGt,
		L: ref(part("PS"), rangePart("Edges", 0, 4), part("weight")), R: lit(types.NewInt(0))}
	if v := bindEval(t, b, env, e); v.Truthy() {
		t.Error("Edges[0..4] on a 2-edge path must be false")
	}
	// In-bounds closed range.
	e = &BinaryExpr{Op: OpGe,
		L: ref(part("PS"), rangePart("Edges", 0, 1), part("weight")), R: lit(types.NewInt(4))}
	if v := bindEval(t, b, env, e); !v.Truthy() {
		t.Error("Edges[0..1].weight >= 4 must hold")
	}
}

func TestQuantifiedIn(t *testing.T) {
	b, env, _ := pathEnv(t)
	in := &InExpr{E: ref(part("PS"), wild("Edges", 0), part("lbl")),
		List: []Expr{lit(types.NewString("x")), lit(types.NewString("y"))}}
	if v := bindEval(t, b, env, in); !v.Truthy() {
		t.Error("∀ lbl IN (x,y) must hold")
	}
	in = &InExpr{E: ref(part("PS"), wild("Edges", 0), part("lbl")),
		List: []Expr{lit(types.NewString("x"))}}
	if v := bindEval(t, b, env, in); v.Truthy() {
		t.Error("∀ lbl IN (x) must fail")
	}
	// NOT IN: no edge label may be in the list.
	in = &InExpr{E: ref(part("PS"), wild("Edges", 0), part("lbl")),
		List: []Expr{lit(types.NewString("z"))}, Neg: true}
	if v := bindEval(t, b, env, in); !v.Truthy() {
		t.Error("∀ lbl NOT IN (z) must hold")
	}
}

func TestPathAggregates(t *testing.T) {
	b, env, _ := pathEnv(t)
	sum := &FuncCall{Name: "SUM", Args: []Expr{ref(part("PS"), part("Edges"), part("weight"))}}
	if v := bindEval(t, b, env, sum); v.I != 10 {
		t.Errorf("SUM(PS.Edges.weight) = %v", v)
	}
	avg := &FuncCall{Name: "AVG", Args: []Expr{ref(part("PS"), part("Edges"), part("weight"))}}
	if v := bindEval(t, b, env, avg); v.F != 5 {
		t.Errorf("AVG = %v", v)
	}
	cnt := &FuncCall{Name: "COUNT", Args: []Expr{ref(part("PS"), part("Edges"))}}
	if v := bindEval(t, b, env, cnt); v.I != 2 {
		t.Errorf("COUNT(PS.Edges) = %v", v)
	}
	mx := &FuncCall{Name: "MAX", Args: []Expr{ref(part("PS"), part("Vertexes"), part("name"))}}
	if v := bindEval(t, b, env, mx); v.S != "c" {
		t.Errorf("MAX(PS.Vertexes.name) = %v", v)
	}
}

func TestValidationRules(t *testing.T) {
	b, _, _ := pathEnv(t)
	// Quantified ref outside a predicate.
	if _, err := b.Bind(&BinaryExpr{Op: OpAdd,
		L: ref(part("PS"), wild("Edges", 0), part("weight")), R: lit(types.NewInt(1))}); err == nil {
		t.Error("quantified ref in arithmetic accepted")
	}
	// Both sides quantified.
	if _, err := b.Bind(&BinaryExpr{Op: OpEq,
		L: ref(part("PS"), wild("Edges", 0), part("weight")),
		R: ref(part("PS"), wild("Edges", 0), part("weight"))}); err == nil {
		t.Error("double-quantified comparison accepted")
	}
	// Unsubscripted element list outside an aggregate.
	if _, err := b.Bind(&BinaryExpr{Op: OpEq,
		L: ref(part("PS"), part("Edges"), part("weight")), R: lit(types.NewInt(1))}); err == nil {
		t.Error("PS.Edges.w outside aggregate accepted")
	}
	// Bad range.
	if _, err := b.Bind(ref(part("PS"), rangePart("Edges", 3, 1), part("weight"))); err == nil {
		t.Error("reversed range accepted")
	}
	// Subscript on a non-path reference.
	if _, err := b.Bind(ref(idx("u", 0), part("job"))); err == nil {
		t.Error("subscripted table ref accepted")
	}
	// Unknown path member.
	if _, err := b.Bind(ref(part("PS"), part("Bogus"))); err == nil {
		t.Error("unknown path property accepted")
	}
	// Ranged endpoint reference.
	if _, err := b.Bind(ref(part("PS"), wild("Edges", 0), part("EndVertex"))); err == nil {
		t.Error("ranged endpoint ref accepted")
	}
}

func TestLogicArithmeticComparisons(t *testing.T) {
	env := &Env{Row: types.Row{}}
	evalv := func(e Expr) types.Value {
		v, err := Eval(e, env)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		return v
	}
	// Arithmetic typing.
	if v := evalv(&BinaryExpr{Op: OpAdd, L: lit(types.NewInt(2)), R: lit(types.NewInt(3))}); v.Kind != types.KindInt || v.I != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := evalv(&BinaryExpr{Op: OpDiv, L: lit(types.NewInt(7)), R: lit(types.NewInt(2))}); v.I != 3 {
		t.Errorf("7/2 = %v (int division)", v)
	}
	if v := evalv(&BinaryExpr{Op: OpMul, L: lit(types.NewInt(2)), R: lit(types.NewFloat(1.5))}); v.Kind != types.KindFloat || v.F != 3 {
		t.Errorf("2*1.5 = %v", v)
	}
	if v := evalv(&BinaryExpr{Op: OpMod, L: lit(types.NewInt(7)), R: lit(types.NewInt(4))}); v.I != 3 {
		t.Errorf("7%%4 = %v", v)
	}
	if _, err := Eval(&BinaryExpr{Op: OpDiv, L: lit(types.NewInt(1)), R: lit(types.NewInt(0))}, env); err == nil {
		t.Error("division by zero succeeded")
	}
	// NULL propagation in arithmetic; NULL rejection in comparisons.
	if v := evalv(&BinaryExpr{Op: OpAdd, L: lit(types.Null()), R: lit(types.NewInt(1))}); !v.IsNull() {
		t.Errorf("NULL+1 = %v", v)
	}
	if v := evalv(&BinaryExpr{Op: OpEq, L: lit(types.Null()), R: lit(types.Null())}); v.Truthy() {
		t.Error("NULL = NULL must be false (two-valued logic)")
	}
	// Incomparable kinds compare false.
	if v := evalv(&BinaryExpr{Op: OpEq, L: lit(types.NewString("3")), R: lit(types.NewInt(3))}); v.Truthy() {
		t.Error("'3' = 3 must be false")
	}
	// AND/OR short-circuit.
	boom := &BinaryExpr{Op: OpDiv, L: lit(types.NewInt(1)), R: lit(types.NewInt(0))}
	if v := evalv(&BinaryExpr{Op: OpAnd, L: lit(types.NewBool(false)), R: boom}); v.Truthy() {
		t.Error("AND short-circuit broken")
	}
	if v := evalv(&BinaryExpr{Op: OpOr, L: lit(types.NewBool(true)), R: boom}); !v.Truthy() {
		t.Error("OR short-circuit broken")
	}
	// NOT / negation.
	if v := evalv(&UnaryExpr{Op: OpNot, E: lit(types.NewBool(false))}); !v.Truthy() {
		t.Error("NOT false")
	}
	if v := evalv(&UnaryExpr{Op: OpNeg, E: lit(types.NewInt(4))}); v.I != -4 {
		t.Errorf("-4 = %v", v)
	}
	// IS NULL.
	if v := evalv(&IsNullExpr{E: lit(types.Null())}); !v.Truthy() {
		t.Error("NULL IS NULL")
	}
	if v := evalv(&IsNullExpr{E: lit(types.NewInt(1)), Neg: true}); !v.Truthy() {
		t.Error("1 IS NOT NULL")
	}
}

func TestCaseExpr(t *testing.T) {
	env := &Env{}
	c := &CaseExpr{
		Whens: []CaseWhen{
			{Cond: lit(types.NewBool(false)), Then: lit(types.NewInt(1))},
			{Cond: lit(types.NewBool(true)), Then: lit(types.NewInt(2))},
		},
		Else: lit(types.NewInt(3)),
	}
	v, err := Eval(c, env)
	if err != nil || v.I != 2 {
		t.Errorf("CASE = %v, %v", v, err)
	}
	c.Whens[1].Cond = lit(types.NewBool(false))
	if v, _ := Eval(c, env); v.I != 3 {
		t.Errorf("CASE else = %v", v)
	}
	c.Else = nil
	if v, _ := Eval(c, env); !v.IsNull() {
		t.Errorf("CASE no-else = %v", v)
	}
}

func TestScalarFunctions(t *testing.T) {
	env := &Env{}
	cases := []struct {
		f    *FuncCall
		want types.Value
	}{
		{&FuncCall{Name: "ABS", Args: []Expr{lit(types.NewInt(-5))}}, types.NewInt(5)},
		{&FuncCall{Name: "ABS", Args: []Expr{lit(types.NewFloat(-2.5))}}, types.NewFloat(2.5)},
		{&FuncCall{Name: "UPPER", Args: []Expr{lit(types.NewString("ab"))}}, types.NewString("AB")},
		{&FuncCall{Name: "LOWER", Args: []Expr{lit(types.NewString("AB"))}}, types.NewString("ab")},
		{&FuncCall{Name: "LENGTH", Args: []Expr{lit(types.NewString("abc"))}}, types.NewInt(3)},
		{&FuncCall{Name: "FLOOR", Args: []Expr{lit(types.NewFloat(1.7))}}, types.NewFloat(1)},
		{&FuncCall{Name: "CEIL", Args: []Expr{lit(types.NewFloat(1.2))}}, types.NewFloat(2)},
		{&FuncCall{Name: "COALESCE", Args: []Expr{lit(types.Null()), lit(types.NewInt(9))}}, types.NewInt(9)},
	}
	for _, c := range cases {
		v, err := Eval(c.f, env)
		if err != nil {
			t.Errorf("%s: %v", c.f, err)
			continue
		}
		if !types.Equal(v, c.want) {
			t.Errorf("%s = %v, want %v", c.f, v, c.want)
		}
	}
	if _, err := Eval(&FuncCall{Name: "NOPE", Args: nil}, env); err == nil {
		t.Error("unknown function succeeded")
	}
	if _, err := Eval(&FuncCall{Name: "SUM", Args: []Expr{lit(types.NewInt(1))}}, env); err == nil {
		t.Error("relational aggregate evaluated row-at-a-time")
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h_lo", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"Hello", "hello", false}, // case-sensitive
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestInExprScalar(t *testing.T) {
	env := &Env{}
	in := &InExpr{E: lit(types.NewInt(2)), List: []Expr{lit(types.NewInt(1)), lit(types.NewInt(2))}}
	if v, _ := Eval(in, env); !v.Truthy() {
		t.Error("2 IN (1,2)")
	}
	in.Neg = true
	if v, _ := Eval(in, env); v.Truthy() {
		t.Error("2 NOT IN (1,2)")
	}
	in = &InExpr{E: lit(types.Null()), List: []Expr{lit(types.NewInt(1))}}
	if v, _ := Eval(in, env); v.Truthy() {
		t.Error("NULL IN (...) must be false")
	}
}

func TestCloneIndependence(t *testing.T) {
	b, env, _ := pathEnv(t)
	orig := &BinaryExpr{Op: OpEq,
		L: ref(part("PS"), part("Length")), R: lit(types.NewInt(2))}
	clone := orig.Clone()
	if _, err := b.Bind(clone); err != nil {
		t.Fatal(err)
	}
	// The original must still contain a RawRef (unbound).
	if _, ok := orig.L.(*RawRef); !ok {
		t.Errorf("binding the clone mutated the original: %T", orig.L)
	}
	v, err := Eval(clone, env)
	if err != nil || !v.Truthy() {
		t.Errorf("clone eval: %v %v", v, err)
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	a := lit(types.NewBool(true))
	bb := lit(types.NewBool(false))
	c := lit(types.NewBool(true))
	e := &BinaryExpr{Op: OpAnd, L: &BinaryExpr{Op: OpAnd, L: a, R: bb}, R: c}
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("conjuncts = %d", len(parts))
	}
	re := JoinConjuncts(parts)
	if re.String() != e.String() {
		t.Errorf("rejoin mismatch: %s vs %s", re, e)
	}
	if JoinConjuncts(nil) != nil {
		t.Error("empty join must be nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Error("nil split must be nil")
	}
}

func TestQualifiers(t *testing.T) {
	e := &BinaryExpr{Op: OpAnd,
		L: &BinaryExpr{Op: OpEq, L: ref(part("U"), part("job")), R: lit(types.NewString("x"))},
		R: &BinaryExpr{Op: OpEq, L: ref(part("PS"), part("Length")), R: lit(types.NewInt(2))},
	}
	q := Qualifiers(e)
	if !q["u"] || !q["ps"] || len(q) != 2 {
		t.Errorf("qualifiers = %v", q)
	}
}

func TestAggState(t *testing.T) {
	sum := NewAggState("SUM")
	for _, v := range []types.Value{types.NewInt(1), types.Null(), types.NewInt(2)} {
		if err := sum.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := sum.Result(); got.Kind != types.KindInt || got.I != 3 {
		t.Errorf("SUM = %v", got)
	}
	fsum := NewAggState("SUM")
	fsum.Add(types.NewInt(1))
	fsum.Add(types.NewFloat(0.5))
	if got := fsum.Result(); got.Kind != types.KindFloat || got.F != 1.5 {
		t.Errorf("mixed SUM = %v", got)
	}
	if got := NewAggState("SUM").Result(); !got.IsNull() {
		t.Errorf("empty SUM = %v", got)
	}
	if got := NewAggState("COUNT").Result(); got.I != 0 {
		t.Errorf("empty COUNT = %v", got)
	}
	avg := NewAggState("AVG")
	avg.Add(types.NewInt(1))
	avg.Add(types.NewInt(2))
	if got := avg.Result(); got.F != 1.5 {
		t.Errorf("AVG = %v", got)
	}
	mn := NewAggState("MIN")
	mn.Add(types.NewString("b"))
	mn.Add(types.NewString("a"))
	if got := mn.Result(); got.S != "a" {
		t.Errorf("MIN = %v", got)
	}
	d := NewDistinctAggState("COUNT")
	for _, v := range []types.Value{types.NewInt(1), types.NewInt(1), types.NewInt(2)} {
		d.Add(v)
	}
	if got := d.Result(); got.I != 2 {
		t.Errorf("COUNT DISTINCT = %v", got)
	}
	if err := NewAggState("SUM").Add(types.NewString("x")); err == nil {
		t.Error("SUM of string accepted")
	}
}

// Property: MatchLike with a pattern equal to the string (no wildcards)
// is equality; '%'+s+'%' always matches any superstring.
func TestMatchLikeProperties(t *testing.T) {
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '%' || r == '_' {
				return 'x'
			}
			return r
		}, s)
	}
	prop := func(a, b string) bool {
		a, b = sanitize(a), sanitize(b)
		if !MatchLike(a, a) {
			return false
		}
		return MatchLike(b+a+b, "%"+a+"%")
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestParamEvaluation(t *testing.T) {
	env := &Env{Params: types.Row{types.NewInt(7), types.NewString("x")}}
	v, err := Eval(&Param{Idx: 0}, env)
	if err != nil || v.I != 7 {
		t.Fatalf("param 0: %v %v", v, err)
	}
	v, err = Eval(&Param{Idx: 1}, env)
	if err != nil || v.S != "x" {
		t.Fatalf("param 1: %v %v", v, err)
	}
	if _, err := Eval(&Param{Idx: 2}, env); err == nil {
		t.Error("missing param accepted")
	}
	// Params compose with comparisons and survive cloning/binding.
	e := &BinaryExpr{Op: OpEq, L: &Param{Idx: 0}, R: lit(types.NewInt(7))}
	clone := e.Clone()
	v, err = Eval(clone, env)
	if err != nil || !v.Truthy() {
		t.Fatalf("param comparison: %v %v", v, err)
	}
	if (&Param{Idx: 0}).String() != "?1" {
		t.Errorf("param display: %s", (&Param{Idx: 0}).String())
	}
}

// TestStringAndCloneAllNodes exercises every node's display form and deep
// copy. Displays feed EXPLAIN output and snapshot round trips, so they
// must be stable and parseable where the grammar covers them.
func TestStringAndCloneAllNodes(t *testing.T) {
	nodes := []struct {
		e    Expr
		want string
	}{
		{lit(types.NewString("it's")), "'it''s'"},
		{&ColumnRef{Qualifier: "t", Name: "c"}, "t.c"},
		{&ColumnRef{Name: "c"}, "c"},
		{&Param{Idx: 1}, "?2"},
		{&BinaryExpr{Op: OpAnd, L: lit(types.NewBool(true)), R: lit(types.NewBool(false))},
			"(true AND false)"},
		{&UnaryExpr{Op: OpNot, E: lit(types.NewBool(true))}, "(NOT true)"},
		{&UnaryExpr{Op: OpNeg, E: lit(types.NewInt(3))}, "(-3)"},
		{&InExpr{E: lit(types.NewInt(1)), List: []Expr{lit(types.NewInt(2))}, Neg: true},
			"(1 NOT IN (2))"},
		{&IsNullExpr{E: lit(types.NewInt(1)), Neg: true}, "(1 IS NOT NULL)"},
		{&FuncCall{Name: "COUNT", Star: true}, "COUNT(*)"},
		{&FuncCall{Name: "SUM", Args: []Expr{lit(types.NewInt(1))}, Distinct: true},
			"SUM(DISTINCT 1)"},
		{&CaseExpr{Whens: []CaseWhen{{Cond: lit(types.NewBool(true)), Then: lit(types.NewInt(1))}},
			Else: lit(types.NewInt(2))},
			"CASE WHEN true THEN 1 ELSE 2 END"},
		{ref(part("PS"), wild("Edges", 2), part("w")), "PS.Edges[2..*].w"},
		{ref(part("PS"), rangePart("Edges", 1, 3), part("w")), "PS.Edges[1..3].w"},
		{ref(part("PS"), idx("Vertexes", 0), part("n")), "PS.Vertexes[0].n"},
		{&PathValueRef{Alias: "PS"}, "PS"},
		{&PathProperty{Alias: "PS", Prop: PropLength}, "PS.Length"},
		{&PathProperty{Alias: "PS", Prop: PropPathString}, "PS.PathString"},
		{&PathVertexAttr{Alias: "PS", End: true, Attr: "name"}, "PS.EndVertex.name"},
		{&PathVertexAttr{Alias: "PS", Attr: "name"}, "PS.StartVertex.name"},
		{&PathEndpointID{Alias: "PS", Idx: 2, End: true}, "PS.Edges[2].EndVertex"},
		{&PathEndpointID{Alias: "PS", Idx: 0}, "PS.Edges[0].StartVertex"},
		{&PathElemAttr{Alias: "PS", Elem: ElemEdges, Rng: Rng{Start: 1, End: 1}, Attr: "w"},
			"PS.Edges[1].w"},
		{&PathElemAttr{Alias: "PS", Elem: ElemVertexes, Rng: Rng{All: true}, Attr: "n"},
			"PS.Vertexes.n"},
		{&PathElemAttr{Alias: "PS", Elem: ElemEdges, Rng: Rng{Start: 0, Wildcard: true}, Attr: "w"},
			"PS.Edges[0..*].w"},
	}
	for _, n := range nodes {
		if got := n.e.String(); got != n.want {
			t.Errorf("String: %q, want %q", got, n.want)
		}
		c := n.e.Clone()
		if c.String() != n.e.String() {
			t.Errorf("clone display differs: %q vs %q", c.String(), n.e.String())
		}
		// Clones are distinct values.
		if c == n.e {
			t.Errorf("clone aliases original: %s", n.e)
		}
	}
}

// Additional binder/validation corners.
func TestBinderCorners(t *testing.T) {
	b, env, _ := pathEnv(t)
	// Re-binding an already-bound tree re-resolves indices.
	e, err := b.Bind(ref(part("PS"), part("Length")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Bind(e); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	// Unknown path variables fail on every bound node type.
	other := NewBinder(types.NewSchema())
	for _, n := range []Expr{
		&PathValueRef{Alias: "ZZ"},
		&PathProperty{Alias: "ZZ"},
		&PathVertexAttr{Alias: "ZZ", Attr: "x"},
		&PathEndpointID{Alias: "ZZ"},
		&PathElemAttr{Alias: "ZZ", Rng: Rng{Start: 0, End: 0}},
	} {
		if _, err := other.Bind(n); err == nil {
			t.Errorf("bound %T without path binding", n)
		}
	}
	// CASE arms are validated.
	bad := &CaseExpr{Whens: []CaseWhen{{
		Cond: &BinaryExpr{Op: OpAdd, L: ref(part("PS"), wild("Edges", 0), part("weight")), R: lit(types.NewInt(1))},
		Then: lit(types.NewInt(1)),
	}}}
	if _, err := b.Bind(bad); err == nil {
		t.Error("quantified ref inside CASE arithmetic accepted")
	}
	_ = env
}
