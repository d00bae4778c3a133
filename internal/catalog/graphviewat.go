package catalog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// GraphViewAt is a graph view bound to one engine version: a topology
// version plus row views of the relational sources. A pinned reader
// holds a GraphViewAt whose Topo/V/E are immutable, so every traversal,
// tuple-pointer dereference and fan-out read resolves against the version
// it pinned, regardless of concurrent writers; the writer side uses Live,
// which binds the current topology and the live tables. It is the one
// implementation of expr.GraphAccessor.
type GraphViewAt struct {
	GV   *GraphView
	Topo *graph.CSR
	V    storage.RowView
	E    storage.RowView

	// live marks the writer's binding: its sources move under it, so it
	// never lays out a column.
	live bool
	// evaluated counts the elements this binding's filter and weight
	// closures have answered (Credit); cols holds the columns Column laid
	// out, copied on write under mu so a lookup takes no lock.
	evaluated atomic.Int64
	mu        sync.Mutex
	cols      atomic.Pointer[[]attrColumn]
	// badWeights is the view's badWeights as of the bound version, one
	// count per declared edge attribute; nil on a binding At did not make.
	badWeights []int
}

// attrColumn is one column Column laid out, keyed by element kind and
// source position.
type attrColumn struct {
	elem expr.ElemKind
	pos  int
	col  *graph.Column
}

var _ expr.GraphAccessor = (*GraphViewAt)(nil)

// At binds the view to its current topology version and source row views.
// While the version and both views are the ones the previous call bound,
// it hands that binding back, so the weight columns it laid out survive
// writes to unrelated tables. Writer side: callers hold the engine write
// lock.
func (gv *GraphView) At(c *graph.CSR, v, e storage.RowView) *GraphViewAt {
	if l := gv.last; l != nil && l.Topo == c && l.V == v && l.E == e {
		return l
	}
	gv.last = &GraphViewAt{GV: gv, Topo: c, V: v, E: e, badWeights: slices.Clone(gv.badWeights)}
	return gv.last
}

// Live binds the view to its current topology and the live source
// tables. Writer side: callers hold the engine write lock.
func (gv *GraphView) Live() *GraphViewAt {
	return &GraphViewAt{GV: gv, Topo: gv.Version(), V: gv.vtab, E: gv.etab, live: true}
}

// CSR returns the bound topology version for a traversal, counting the
// read as a hit when the version's delta is empty and a miss when the
// traversal has to walk one.
func (at *GraphViewAt) CSR() *graph.CSR {
	if at.Topo.DeltaLen() == 0 {
		at.GV.csrHits.Add(1)
	} else {
		at.GV.csrMisses.Add(1)
	}
	return at.Topo
}

// columnKind returns the kind of column an attribute lays out: ColInt for
// BIGINT, ColFloat for DOUBLE. Other attributes, VARCHAR included, and
// the FanOut/FanIn properties have none; their filters keep the closure.
func columnKind(ref expr.AttrRef) (graph.ColKind, bool) {
	if ref.Src != expr.AttrColumn {
		return 0, false
	}
	switch ref.Kind {
	case types.KindInt:
		return graph.ColInt, true
	case types.KindFloat:
		return graph.ColFloat, true
	}
	return 0, false
}

// Column returns the typed column of the attribute ref of the bound
// version's edges (elem ElemEdges, laid out as graph.CSR.EdgeColumn lays
// it out) or vertexes (by dense vertex index), or nil while the binding's
// closures answer for it. A pinned binding lays its columns out from its
// own row views once its filter and weight closures have together
// answered as many elements as the version holds edges (Credit). The
// credit is the binding's, not the column's: it pays for the first
// column, and any other column is laid out as soon as it is asked for.
// The writer's Live binding never lays one out. An entry holds the
// attribute's value only where it is of the attribute's kind; a NULL, a
// value of another kind or a dangling tuple pointer leaves it empty, and
// the kernels ask the closure, which answers as without a column.
func (at *GraphViewAt) Column(elem expr.ElemKind, ref expr.AttrRef) *graph.Column {
	kind, ok := columnKind(ref)
	if ne := int64(at.Topo.NumEdges()); !ok || at.live || ne == 0 || at.evaluated.Load() < ne {
		return nil
	}
	if c := at.cachedColumn(elem, ref.Pos); c != nil {
		return c
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	if c := at.cachedColumn(elem, ref.Pos); c != nil {
		return c
	}
	c := at.layOut(elem, ref.Pos, kind)
	var cols []attrColumn
	if p := at.cols.Load(); p != nil {
		cols = slices.Clone(*p)
	}
	cols = append(cols, attrColumn{elem: elem, pos: ref.Pos, col: c})
	at.cols.Store(&cols)
	at.GV.columnBuilds.Add(1)
	return c
}

// cachedColumn returns the column Column laid out for (elem, pos), or nil.
func (at *GraphViewAt) cachedColumn(elem expr.ElemKind, pos int) *graph.Column {
	if p := at.cols.Load(); p != nil {
		for _, c := range *p {
			if c.elem == elem && c.pos == pos {
				return c.col
			}
		}
	}
	return nil
}

// layOut builds the column of the attribute at source position pos.
func (at *GraphViewAt) layOut(elem expr.ElemKind, pos int, kind graph.ColKind) *graph.Column {
	src := at.E
	if elem == expr.ElemVertexes {
		src = at.V
	}
	read := func(tuple uint64) graph.Entry {
		row, ok := src.Get(storage.RowID(tuple))
		if !ok {
			return graph.Entry{}
		}
		switch v := row[pos]; {
		case kind == graph.ColInt && v.Kind == types.KindInt:
			return graph.Entry{I: v.I, OK: true}
		case kind == graph.ColFloat && v.Kind == types.KindFloat:
			return graph.Entry{F: v.F, OK: true}
		}
		return graph.Entry{}
	}
	if elem == expr.ElemVertexes {
		return at.Topo.VertexColumn(kind, func(v *graph.Vertex) graph.Entry { return read(v.Tuple) })
	}
	return at.Topo.EdgeColumn(kind, func(e *graph.Edge) graph.Entry { return read(e.Tuple) })
}

// WeightsVouched reports whether every live edge of the bound version
// carries a weight SPScan accepts under the attribute ref: a number, not
// NaN, not negative (+Inf is accepted). The one-sided SPScan raises its
// weight error for any edge it reaches, and the two-sided kernel reaches
// far fewer, so the executor runs the two-sided kernel only on a version
// where no edge could raise one; that way both kernels answer with the
// same rows and the same errors. It reads the count the view's hooks
// keep (GraphView.badWeights), so it costs no pass over the edges. The
// writer's Live binding, whose sources move under it, answers false.
func (at *GraphViewAt) WeightsVouched(ref expr.AttrRef) bool {
	for i, a := range at.GV.EdgeAttrs {
		if a.pos == ref.Pos {
			return i < len(at.badWeights) && at.badWeights[i] == 0
		}
	}
	return false
}

// Credit counts n elements answered by the binding's filter or weight
// closures toward the build of its columns (Column).
func (at *GraphViewAt) Credit(n int64) { at.evaluated.Add(n) }

// ResolveAttr implements expr.GraphAccessor; attribute metadata is the
// same in every version.
func (at *GraphViewAt) ResolveAttr(elem expr.ElemKind, name string) (expr.AttrRef, error) {
	return at.GV.ResolveAttr(elem, name)
}

// VertexAttr reads a resolved vertex attribute or property against the
// bound version.
func (at *GraphViewAt) VertexAttr(v *graph.Vertex, ref expr.AttrRef) (types.Value, error) {
	switch ref.Src {
	case expr.AttrFanOut:
		return types.NewInt(int64(at.Topo.FanOut(v))), nil
	case expr.AttrFanIn:
		return types.NewInt(int64(at.Topo.FanIn(v))), nil
	}
	if row, ok := at.V.Get(storage.RowID(v.Tuple)); ok {
		return row[ref.Pos], nil
	}
	return types.Null(), at.GV.dangling("vertex", v.ID)
}

// EdgeAttr reads a resolved edge attribute against the bound version.
func (at *GraphViewAt) EdgeAttr(e *graph.Edge, ref expr.AttrRef) (types.Value, error) {
	return at.GV.edgeAttr(at.E, e, ref)
}

// VertexRow materializes the extended tuple of a vertex — its declared
// attributes, then FanOut and FanIn — against the bound version.
func (at *GraphViewAt) VertexRow(v *graph.Vertex) (types.Row, error) {
	gv := at.GV
	row, ok := at.V.Get(storage.RowID(v.Tuple))
	if !ok {
		return nil, gv.dangling("vertex", v.ID)
	}
	out := make(types.Row, 0, len(gv.VertexAttrs)+2)
	for _, a := range gv.VertexAttrs {
		out = append(out, row[a.pos])
	}
	return append(out,
		types.NewInt(int64(at.Topo.FanOut(v))),
		types.NewInt(int64(at.Topo.FanIn(v)))), nil
}

// EdgeRow materializes the extended tuple of an edge against the bound
// version.
func (at *GraphViewAt) EdgeRow(e *graph.Edge) (types.Row, error) {
	gv := at.GV
	row, ok := at.E.Get(storage.RowID(e.Tuple))
	if !ok {
		return nil, gv.dangling("edge", e.ID)
	}
	out := make(types.Row, 0, len(gv.EdgeAttrs))
	for _, a := range gv.EdgeAttrs {
		out = append(out, row[a.pos])
	}
	return out, nil
}

// edgeAttr reads a resolved edge attribute from the edges source view src.
func (gv *GraphView) edgeAttr(src storage.RowView, e *graph.Edge, ref expr.AttrRef) (types.Value, error) {
	if row, ok := src.Get(storage.RowID(e.Tuple)); ok {
		return row[ref.Pos], nil
	}
	return types.Null(), gv.dangling("edge", e.ID)
}

// dangling reports a tuple pointer with no row behind it.
func (gv *GraphView) dangling(what string, id int64) error {
	return fmt.Errorf("graph view %s: dangling tuple pointer for %s %d", gv.Name, what, id)
}
