// Package expr defines the expression AST shared by the SQL parser, the
// planner, and the executor, together with binding (name resolution) and
// evaluation.
//
// Besides ordinary relational expressions, the package implements the
// paper's path expressions (§4): PS.Length, PS.PathString,
// PS.StartVertex.attr / PS.EndVertex.attr, PS.Edges[i].attr,
// range-quantified references such as PS.Edges[0..*].attr (which assert the
// predicate over every edge in the range), step endpoints such as
// PS.Edges[2].EndVertex, and aggregates over a whole path such as
// SUM(PS.Edges.Weight).
//
// Boolean logic is two-valued: comparisons involving NULL or incomparable
// kinds evaluate to FALSE (not UNKNOWN). This matches how the paper's
// queries use predicates and keeps traversal-time filters cheap.
package expr

import (
	"fmt"
	"strings"

	"grfusion/internal/graph"
	"grfusion/internal/types"
)

// Expr is any expression node.
type Expr interface {
	fmt.Stringer
	// Clone returns a deep copy so one parse tree can be bound against
	// several schemas.
	Clone() Expr
}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*",
	OpDiv: "/", OpMod: "%", OpLike: "LIKE",
}

// String returns the SQL spelling of the operator. Unknown values render
// as BinOp(<n>) instead of vanishing from the output.
func (op BinOp) String() string {
	if s, ok := binOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("BinOp(%d)", uint8(op))
}

// IsComparison reports whether op compares its operands.
func (op BinOp) IsComparison() bool { return op <= OpGe || op == OpLike }

// Literal is a constant value.
type Literal struct{ Val types.Value }

func (l *Literal) String() string {
	if l.Val.Kind == types.KindString {
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	}
	return l.Val.String()
}

// Clone implements Expr.
func (l *Literal) Clone() Expr { c := *l; return &c }

// Param is a positional statement parameter (`?`), bound at execution
// time from the prepared statement's argument list. VoltDB's execution
// model — which GRFusion inherits — compiles parameterized procedures once
// and executes them many times; Param is what makes that plan reuse
// possible here.
type Param struct {
	// Idx is the 0-based position within the statement's parameter list.
	Idx int
}

func (p *Param) String() string { return fmt.Sprintf("?%d", p.Idx+1) }

// Clone implements Expr.
func (p *Param) Clone() Expr { c := *p; return &c }

// ColumnRef names a column, optionally qualified by a table or range
// variable. Binding fills Idx.
type ColumnRef struct {
	Qualifier, Name string
	// Idx is the bound position in the input schema, or -1 before binding.
	Idx int
}

func (c *ColumnRef) String() string {
	if c.Qualifier == "" {
		return c.Name
	}
	return c.Qualifier + "." + c.Name
}

// Clone implements Expr.
func (c *ColumnRef) Clone() Expr { cc := *c; return &cc }

// BinaryExpr applies a binary operator. When one operand is a quantified
// path range reference (PS.Edges[0..*].attr), a comparison asserts the
// predicate for every element in the range.
type BinaryExpr struct {
	Op   BinOp
	L, R Expr
}

func (b *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Clone implements Expr.
func (b *BinaryExpr) Clone() Expr { return &BinaryExpr{Op: b.Op, L: b.L.Clone(), R: b.R.Clone()} }

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNot UnOp = iota
	OpNeg
)

// UnaryExpr applies NOT or numeric negation.
type UnaryExpr struct {
	Op UnOp
	E  Expr
}

func (u *UnaryExpr) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", u.E)
	}
	return fmt.Sprintf("(-%s)", u.E)
}

// Clone implements Expr.
func (u *UnaryExpr) Clone() Expr { return &UnaryExpr{Op: u.Op, E: u.E.Clone()} }

// InExpr is `E [NOT] IN (list)`. A quantified path range on the left
// asserts membership for every element in the range.
type InExpr struct {
	E    Expr
	List []Expr
	Neg  bool
}

func (in *InExpr) String() string {
	parts := make([]string, len(in.List))
	for i, e := range in.List {
		parts[i] = e.String()
	}
	not := ""
	if in.Neg {
		not = "NOT "
	}
	return fmt.Sprintf("(%s %sIN (%s))", in.E, not, strings.Join(parts, ", "))
}

// Clone implements Expr.
func (in *InExpr) Clone() Expr {
	list := make([]Expr, len(in.List))
	for i, e := range in.List {
		list[i] = e.Clone()
	}
	return &InExpr{E: in.E.Clone(), List: list, Neg: in.Neg}
}

// IsNullExpr is `E IS [NOT] NULL`.
type IsNullExpr struct {
	E   Expr
	Neg bool
}

func (n *IsNullExpr) String() string {
	if n.Neg {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// Clone implements Expr.
func (n *IsNullExpr) Clone() Expr { return &IsNullExpr{E: n.E.Clone(), Neg: n.Neg} }

// FuncCall is a scalar or aggregate function application. COUNT(*) is
// represented with Star set and no arguments.
type FuncCall struct {
	Name string
	Args []Expr
	Star bool
	// Distinct marks COUNT(DISTINCT x) style calls.
	Distinct bool
}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(parts, ", "))
}

// Clone implements Expr.
func (f *FuncCall) Clone() Expr {
	args := make([]Expr, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.Clone()
	}
	return &FuncCall{Name: f.Name, Args: args, Star: f.Star, Distinct: f.Distinct}
}

// AggNames lists the supported aggregate functions.
var AggNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregate reports whether f is an aggregate call (COUNT/SUM/AVG/MIN/MAX)
// that is NOT a per-path aggregate (those evaluate row-at-a-time).
func (f *FuncCall) IsAggregate() bool {
	if !AggNames[strings.ToUpper(f.Name)] {
		return false
	}
	if f.Star {
		return true
	}
	if len(f.Args) == 1 {
		if pe, ok := f.Args[0].(*PathElemAttr); ok && pe.Rng.All {
			return false // SUM(PS.Edges.W): per-path, row-evaluable
		}
	}
	return true
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr // may be nil
}

// CaseWhen is one WHEN/THEN arm.
type CaseWhen struct{ Cond, Then Expr }

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Clone implements Expr.
func (c *CaseExpr) Clone() Expr {
	out := &CaseExpr{Whens: make([]CaseWhen, len(c.Whens))}
	for i, w := range c.Whens {
		out.Whens[i] = CaseWhen{Cond: w.Cond.Clone(), Then: w.Then.Clone()}
	}
	if c.Else != nil {
		out.Else = c.Else.Clone()
	}
	return out
}

// --- Raw references -------------------------------------------------------

// RefPart is one segment of a dotted reference chain, optionally indexed.
type RefPart struct {
	Name string
	// HasIndex marks Name[...] subscripting.
	HasIndex bool
	// Start/End are the subscript bounds; End == Start for a single index.
	Start, End int
	// Wildcard marks an open range Name[i..*].
	Wildcard bool
}

// RawRef is an unresolved dotted reference as produced by the parser, e.g.
// U.Job, PS.Length, PS.Edges[0..*].StartDate. Binding rewrites it into a
// ColumnRef or one of the path nodes once the FROM-clause aliases are known.
type RawRef struct {
	Parts []RefPart
}

func (r *RawRef) String() string {
	var sb strings.Builder
	for i, p := range r.Parts {
		if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(p.Name)
		if p.HasIndex {
			if p.Wildcard {
				fmt.Fprintf(&sb, "[%d..*]", p.Start)
			} else if p.Start == p.End {
				fmt.Fprintf(&sb, "[%d]", p.Start)
			} else {
				fmt.Fprintf(&sb, "[%d..%d]", p.Start, p.End)
			}
		}
	}
	return sb.String()
}

// Clone implements Expr.
func (r *RawRef) Clone() Expr {
	return &RawRef{Parts: append([]RefPart(nil), r.Parts...)}
}

// --- Bound path nodes -----------------------------------------------------

// AttrSource says where a resolved graph-view attribute is read from.
type AttrSource uint8

// Attribute sources: a declared attribute lives in a column of its
// element's relational source (§3); FanOut and FanIn are computed from the
// topology (§5.2).
const (
	AttrColumn AttrSource = iota
	AttrFanOut
	AttrFanIn
)

// AttrRef is a graph-view attribute reference resolved once, at bind or
// plan time, so reading it per element is a tuple-pointer dereference plus
// an index (or a degree read), never a name lookup.
type AttrRef struct {
	// Name is the attribute's declared name.
	Name string
	// Src is AttrColumn for a declared attribute, else the computed
	// property.
	Src AttrSource
	// Pos is the column position in the relational source (AttrColumn).
	Pos int
	// Kind is the attribute's value kind.
	Kind types.Kind
}

// GraphSchema is a path expression's graph view: its attributes, the same
// in every version (read through Env.Graphs). *catalog.GraphView is one.
type GraphSchema interface {
	// ResolveAttr resolves name among the vertex or edge attributes.
	ResolveAttr(elem ElemKind, name string) (AttrRef, error)
}

// GraphAccessor reads resolved attributes of one version of a graph view
// through its tuple pointers. *catalog.GraphViewAt implements it.
type GraphAccessor interface {
	// VertexAttr reads a resolved vertex attribute or property.
	VertexAttr(v *graph.Vertex, ref AttrRef) (types.Value, error)
	// EdgeAttr reads a resolved edge attribute.
	EdgeAttr(e *graph.Edge, ref AttrRef) (types.Value, error)
}

// Graphs hands an evaluation the pinned version of each graph view it
// reads. *exec.Context implements it.
type Graphs interface {
	Accessor(view GraphSchema) GraphAccessor
}

// PathValueRef is a bare reference to a path range variable (SELECT PS).
type PathValueRef struct {
	Alias string
	Col   int // bound column index of the path column
}

func (p *PathValueRef) String() string { return p.Alias }

// Clone implements Expr.
func (p *PathValueRef) Clone() Expr { c := *p; return &c }

// PathProp enumerates scalar path properties.
type PathProp uint8

// Path properties (§4).
const (
	PropLength PathProp = iota
	PropPathString
	PropStartVertexID
	PropEndVertexID
)

var pathPropNames = map[PathProp]string{
	PropLength: "Length", PropPathString: "PathString",
	PropStartVertexID: "StartVertexId", PropEndVertexID: "EndVertexId",
}

// PathProperty reads a scalar property of a path (PS.Length, ...).
type PathProperty struct {
	Alias string
	Prop  PathProp
	Col   int
}

func (p *PathProperty) String() string { return p.Alias + "." + pathPropNames[p.Prop] }

// Clone implements Expr.
func (p *PathProperty) Clone() Expr { c := *p; return &c }

// PathVertexAttr reads an attribute of the path's start or end vertex
// (PS.StartVertex.Id, PS.EndVertex.lstName). FanIn/FanOut work too.
type PathVertexAttr struct {
	Alias string
	End   bool // false = StartVertex, true = EndVertex
	Attr  string
	Ref   AttrRef // Attr, resolved at bind time
	Col   int
	View  GraphSchema
}

func (p *PathVertexAttr) String() string {
	which := "StartVertex"
	if p.End {
		which = "EndVertex"
	}
	return p.Alias + "." + which + "." + p.Attr
}

// Clone implements Expr.
func (p *PathVertexAttr) Clone() Expr { c := *p; return &c }

// PathEndpointID reads the traversal-order start or end vertex identifier
// of edge Idx within the path (PS.Edges[2].EndVertex), used by sub-graph
// pattern predicates such as the triangle closure in Listing 4.
type PathEndpointID struct {
	Alias string
	Idx   int
	End   bool
	Col   int
}

func (p *PathEndpointID) String() string {
	which := "StartVertex"
	if p.End {
		which = "EndVertex"
	}
	return fmt.Sprintf("%s.Edges[%d].%s", p.Alias, p.Idx, which)
}

// Clone implements Expr.
func (p *PathEndpointID) Clone() Expr { c := *p; return &c }

// ElemKind selects the edge or vertex list of a path.
type ElemKind uint8

// Path element kinds.
const (
	ElemEdges ElemKind = iota
	ElemVertexes
)

// Rng is a subscript range over path elements.
type Rng struct {
	// Start and End are inclusive 0-based bounds; End is ignored when
	// Wildcard is set.
	Start, End int
	// Wildcard marks [i..*].
	Wildcard bool
	// All marks an unsubscripted reference (PS.Edges.W), valid only inside
	// an aggregate function.
	All bool
}

// Single reports whether the range denotes exactly one position.
func (r Rng) Single() bool { return !r.All && !r.Wildcard && r.Start == r.End }

// PathElemAttr reads attribute Attr of the path's edges or vertexes over a
// subscript range. A Single range evaluates to a scalar; a quantified
// range is only legal as a comparison/IN operand (∀ semantics) and an All
// range only inside an aggregate.
type PathElemAttr struct {
	Alias string
	Elem  ElemKind
	Rng   Rng
	Attr  string  // empty for a bare element list (COUNT(PS.Edges))
	Ref   AttrRef // Attr, resolved at bind time
	Col   int
	View  GraphSchema
}

func (p *PathElemAttr) String() string {
	elem := "Edges"
	if p.Elem == ElemVertexes {
		elem = "Vertexes"
	}
	sub := ""
	switch {
	case p.Rng.All:
	case p.Rng.Wildcard:
		sub = fmt.Sprintf("[%d..*]", p.Rng.Start)
	case p.Rng.Single():
		sub = fmt.Sprintf("[%d]", p.Rng.Start)
	default:
		sub = fmt.Sprintf("[%d..%d]", p.Rng.Start, p.Rng.End)
	}
	s := p.Alias + "." + elem + sub
	if p.Attr != "" {
		s += "." + p.Attr
	}
	return s
}

// Clone implements Expr.
func (p *PathElemAttr) Clone() Expr { c := *p; return &c }

// Quantified reports whether the reference spans multiple positions and so
// must be consumed by a quantifying comparison.
func (p *PathElemAttr) Quantified() bool { return p.Rng.Wildcard || p.Rng.All || !p.Rng.Single() }

// --- Walking --------------------------------------------------------------

// Walk calls fn for every node of the tree rooted at e, pre-order. If fn
// returns false the node's children are skipped.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch n := e.(type) {
	case *BinaryExpr:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case *UnaryExpr:
		Walk(n.E, fn)
	case *InExpr:
		Walk(n.E, fn)
		for _, x := range n.List {
			Walk(x, fn)
		}
	case *IsNullExpr:
		Walk(n.E, fn)
	case *FuncCall:
		for _, x := range n.Args {
			Walk(x, fn)
		}
	case *CaseExpr:
		for _, w := range n.Whens {
			Walk(w.Cond, fn)
			Walk(w.Then, fn)
		}
		if n.Else != nil {
			Walk(n.Else, fn)
		}
	}
}

// Rewrite applies fn bottom-up, replacing each node by fn's result.
func Rewrite(e Expr, fn func(Expr) (Expr, error)) (Expr, error) {
	if e == nil {
		return nil, nil
	}
	var err error
	switch n := e.(type) {
	case *BinaryExpr:
		if n.L, err = Rewrite(n.L, fn); err != nil {
			return nil, err
		}
		if n.R, err = Rewrite(n.R, fn); err != nil {
			return nil, err
		}
	case *UnaryExpr:
		if n.E, err = Rewrite(n.E, fn); err != nil {
			return nil, err
		}
	case *InExpr:
		if n.E, err = Rewrite(n.E, fn); err != nil {
			return nil, err
		}
		for i := range n.List {
			if n.List[i], err = Rewrite(n.List[i], fn); err != nil {
				return nil, err
			}
		}
	case *IsNullExpr:
		if n.E, err = Rewrite(n.E, fn); err != nil {
			return nil, err
		}
	case *FuncCall:
		for i := range n.Args {
			if n.Args[i], err = Rewrite(n.Args[i], fn); err != nil {
				return nil, err
			}
		}
	case *CaseExpr:
		for i := range n.Whens {
			if n.Whens[i].Cond, err = Rewrite(n.Whens[i].Cond, fn); err != nil {
				return nil, err
			}
			if n.Whens[i].Then, err = Rewrite(n.Whens[i].Then, fn); err != nil {
				return nil, err
			}
		}
		if n.Else != nil {
			if n.Else, err = Rewrite(n.Else, fn); err != nil {
				return nil, err
			}
		}
	}
	return fn(e)
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds an AND tree from conjuncts (nil for none).
func JoinConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}
