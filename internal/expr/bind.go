package expr

import (
	"fmt"
	"strings"

	"grfusion/internal/types"
)

// PathBinding tells the binder where a path range variable's path column
// lives in the input schema and which graph view resolves its attributes.
type PathBinding struct {
	// Col is the position of the path column within the schema.
	Col int
	// View is the path's graph view.
	View GraphSchema
}

// Binder resolves names in an expression tree against an operator's input
// schema and the path range variables in scope.
type Binder struct {
	Schema *types.Schema
	// Paths maps lower-cased path aliases to their bindings.
	Paths map[string]PathBinding
}

// NewBinder creates a binder for the given schema with no path bindings.
func NewBinder(s *types.Schema) *Binder {
	return &Binder{Schema: s, Paths: map[string]PathBinding{}}
}

// WithPath registers a path range variable.
func (b *Binder) WithPath(alias string, pb PathBinding) *Binder {
	b.Paths[strings.ToLower(alias)] = pb
	return b
}

func (b *Binder) pathBinding(alias string) (PathBinding, bool) {
	pb, ok := b.Paths[strings.ToLower(alias)]
	return pb, ok
}

// Bind resolves every reference in e, rewriting RawRef nodes into their
// bound forms and (re)resolving column and path-column indexes. The input
// tree is mutated and returned; Clone first to keep the original. Unqualified
// column references are rewritten to carry their resolved qualifier.
// After binding, Validate checks placement rules for quantified references.
func (b *Binder) Bind(e Expr) (Expr, error) {
	out, err := Rewrite(e, func(n Expr) (Expr, error) {
		switch n := n.(type) {
		case *RawRef:
			return b.bindRaw(n)
		case *ColumnRef:
			return b.bindColumn(n)
		case *PathValueRef:
			pb, ok := b.pathBinding(n.Alias)
			if !ok {
				return nil, fmt.Errorf("unknown path variable %q", n.Alias)
			}
			n.Col = pb.Col
			return n, nil
		case *PathProperty:
			pb, ok := b.pathBinding(n.Alias)
			if !ok {
				return nil, fmt.Errorf("unknown path variable %q", n.Alias)
			}
			n.Col = pb.Col
			return n, nil
		case *PathVertexAttr:
			pb, ok := b.pathBinding(n.Alias)
			if !ok {
				return nil, fmt.Errorf("unknown path variable %q", n.Alias)
			}
			n.Col, n.View = pb.Col, pb.View
			return n, nil
		case *PathEndpointID:
			pb, ok := b.pathBinding(n.Alias)
			if !ok {
				return nil, fmt.Errorf("unknown path variable %q", n.Alias)
			}
			n.Col = pb.Col
			return n, nil
		case *PathElemAttr:
			pb, ok := b.pathBinding(n.Alias)
			if !ok {
				return nil, fmt.Errorf("unknown path variable %q", n.Alias)
			}
			n.Col, n.View = pb.Col, pb.View
			return n, nil
		default:
			return n, nil
		}
	})
	if err != nil {
		return nil, err
	}
	if err := Validate(out); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *Binder) bindColumn(c *ColumnRef) (Expr, error) {
	// A bare identifier naming a path variable is the path value itself.
	if c.Qualifier == "" {
		if pb, ok := b.pathBinding(c.Name); ok {
			return &PathValueRef{Alias: c.Name, Col: pb.Col}, nil
		}
	}
	idx, err := b.Schema.Resolve(c.Qualifier, c.Name)
	if err != nil {
		return nil, err
	}
	c.Idx = idx
	if c.Qualifier == "" {
		c.Qualifier = b.Schema.Columns[idx].Qualifier
	}
	return c, nil
}

func (b *Binder) bindRaw(r *RawRef) (Expr, error) {
	parts := r.Parts
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty reference")
	}
	if pb, isPath := b.pathBinding(parts[0].Name); isPath && !parts[0].HasIndex {
		return b.bindPathRef(r, pb)
	}
	// Plain (possibly qualified) column reference.
	for _, p := range parts {
		if p.HasIndex {
			return nil, fmt.Errorf("subscript on non-path reference %s", r)
		}
	}
	switch len(parts) {
	case 1:
		return b.bindColumn(&ColumnRef{Name: parts[0].Name, Idx: -1})
	case 2:
		return b.bindColumn(&ColumnRef{Qualifier: parts[0].Name, Name: parts[1].Name, Idx: -1})
	default:
		return nil, fmt.Errorf("unknown reference %s", r)
	}
}

func (b *Binder) bindPathRef(r *RawRef, pb PathBinding) (Expr, error) {
	parts := r.Parts
	alias := parts[0].Name
	if len(parts) == 1 {
		return &PathValueRef{Alias: alias, Col: pb.Col}, nil
	}
	head := parts[1]
	up := strings.ToUpper(head.Name)
	switch {
	case len(parts) == 2 && !head.HasIndex:
		switch up {
		case "LENGTH":
			return &PathProperty{Alias: alias, Prop: PropLength, Col: pb.Col}, nil
		case "PATHSTRING":
			return &PathProperty{Alias: alias, Prop: PropPathString, Col: pb.Col}, nil
		case "STARTVERTEXID":
			return &PathProperty{Alias: alias, Prop: PropStartVertexID, Col: pb.Col}, nil
		case "ENDVERTEXID":
			return &PathProperty{Alias: alias, Prop: PropEndVertexID, Col: pb.Col}, nil
		case "EDGES", "VERTEXES":
			// COUNT(PS.Edges): an unsubscripted element list, aggregate-only.
			return &PathElemAttr{Alias: alias, Elem: elemKindOf(up), Rng: Rng{All: true},
				Col: pb.Col, View: pb.View}, nil
		}
		return nil, fmt.Errorf("unknown path property %s", r)

	case up == "STARTVERTEX" || up == "ENDVERTEX":
		if head.HasIndex || len(parts) != 3 || parts[2].HasIndex {
			return nil, fmt.Errorf("malformed path vertex reference %s", r)
		}
		n := &PathVertexAttr{Alias: alias, End: up == "ENDVERTEX", Attr: parts[2].Name,
			Col: pb.Col, View: pb.View}
		ref, err := pb.View.ResolveAttr(ElemVertexes, n.Attr)
		if err != nil {
			return nil, fmt.Errorf("unknown vertex attribute %q in %s", n.Attr, r)
		}
		n.Ref = ref
		return n, nil

	case up == "EDGES" || up == "VERTEXES":
		if len(parts) != 3 || parts[2].HasIndex {
			return nil, fmt.Errorf("malformed path element reference %s", r)
		}
		rng, err := rngOf(head, r)
		if err != nil {
			return nil, err
		}
		attr := parts[2].Name
		attrUp := strings.ToUpper(attr)
		if up == "EDGES" && (attrUp == "STARTVERTEX" || attrUp == "ENDVERTEX") {
			if !rng.Single() {
				return nil, fmt.Errorf("edge endpoint reference requires a single index: %s", r)
			}
			return &PathEndpointID{Alias: alias, Idx: rng.Start, End: attrUp == "ENDVERTEX",
				Col: pb.Col}, nil
		}
		n := &PathElemAttr{Alias: alias, Elem: elemKindOf(up), Rng: rng, Attr: attr,
			Col: pb.Col, View: pb.View}
		ref, err := pb.View.ResolveAttr(n.Elem, attr)
		if err != nil {
			what := "edge"
			if n.Elem == ElemVertexes {
				what = "vertex"
			}
			return nil, fmt.Errorf("unknown %s attribute %q in %s", what, attr, r)
		}
		n.Ref = ref
		return n, nil
	}
	return nil, fmt.Errorf("unknown path reference %s", r)
}

func elemKindOf(up string) ElemKind {
	if up == "VERTEXES" {
		return ElemVertexes
	}
	return ElemEdges
}

func rngOf(p RefPart, r *RawRef) (Rng, error) {
	if !p.HasIndex {
		return Rng{All: true}, nil
	}
	if p.Start < 0 || (!p.Wildcard && p.End < p.Start) {
		return Rng{}, fmt.Errorf("invalid subscript range in %s", r)
	}
	return Rng{Start: p.Start, End: p.End, Wildcard: p.Wildcard}, nil
}

// Validate enforces placement rules for path references:
//   - a quantified range (PS.Edges[0..*].a, PS.Edges[1..3].a) may only
//     appear as a direct operand of a comparison or IN predicate, and only
//     on one side;
//   - an unsubscripted element reference (PS.Edges.a) may only appear as
//     the argument of an aggregate function.
func Validate(e Expr) error {
	return validate(e, false)
}

func validate(e Expr, inAgg bool) error {
	switch n := e.(type) {
	case nil:
		return nil
	case *PathElemAttr:
		if n.Rng.All && !inAgg {
			return fmt.Errorf("%s is only valid inside an aggregate function", n)
		}
		if !n.Rng.All && n.Quantified() {
			return fmt.Errorf("quantified reference %s is only valid as a comparison or IN operand", n)
		}
		return nil
	case *BinaryExpr:
		if n.Op.IsComparison() {
			lq := quantified(n.L)
			rq := quantified(n.R)
			if lq && rq {
				return fmt.Errorf("both sides of %s are quantified path references", n)
			}
			if lq {
				if err := validateQuantifiedOperand(n.L); err != nil {
					return err
				}
				return validate(n.R, inAgg)
			}
			if rq {
				if err := validateQuantifiedOperand(n.R); err != nil {
					return err
				}
				return validate(n.L, inAgg)
			}
		}
		if err := validate(n.L, inAgg); err != nil {
			return err
		}
		return validate(n.R, inAgg)
	case *UnaryExpr:
		return validate(n.E, inAgg)
	case *InExpr:
		if quantified(n.E) {
			if err := validateQuantifiedOperand(n.E); err != nil {
				return err
			}
		} else if err := validate(n.E, inAgg); err != nil {
			return err
		}
		for _, x := range n.List {
			if err := validate(x, inAgg); err != nil {
				return err
			}
		}
		return nil
	case *IsNullExpr:
		return validate(n.E, inAgg)
	case *FuncCall:
		agg := AggNames[strings.ToUpper(n.Name)]
		for _, a := range n.Args {
			if err := validate(a, inAgg || agg); err != nil {
				return err
			}
		}
		return nil
	case *CaseExpr:
		for _, w := range n.Whens {
			if err := validate(w.Cond, inAgg); err != nil {
				return err
			}
			if err := validate(w.Then, inAgg); err != nil {
				return err
			}
		}
		return validate(n.Else, inAgg)
	default:
		return nil
	}
}

func validateQuantifiedOperand(e Expr) error {
	pe := e.(*PathElemAttr)
	if pe.Rng.All {
		return fmt.Errorf("%s is only valid inside an aggregate function", pe)
	}
	return nil
}

func quantified(e Expr) bool {
	pe, ok := e.(*PathElemAttr)
	return ok && pe.Quantified()
}

// Qualifiers returns the set of lower-cased range-variable names referenced
// by e (table qualifiers and path aliases). Unqualified, already-bound
// column references contribute their resolved qualifier.
func Qualifiers(e Expr) map[string]bool {
	out := map[string]bool{}
	Walk(e, func(n Expr) bool {
		switch n := n.(type) {
		case *ColumnRef:
			if n.Qualifier != "" {
				out[strings.ToLower(n.Qualifier)] = true
			}
		case *RawRef:
			if len(n.Parts) > 1 {
				out[strings.ToLower(n.Parts[0].Name)] = true
			}
		case *PathValueRef:
			out[strings.ToLower(n.Alias)] = true
		case *PathProperty:
			out[strings.ToLower(n.Alias)] = true
		case *PathVertexAttr:
			out[strings.ToLower(n.Alias)] = true
		case *PathEndpointID:
			out[strings.ToLower(n.Alias)] = true
		case *PathElemAttr:
			out[strings.ToLower(n.Alias)] = true
		}
		return true
	})
	return out
}

// HasAggregate reports whether e contains a relational aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FuncCall); ok && f.IsAggregate() {
			found = true
			return false
		}
		return true
	})
	return found
}
