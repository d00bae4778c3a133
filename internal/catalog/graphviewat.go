package catalog

import (
	"fmt"

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
}

var _ expr.GraphAccessor = (*GraphViewAt)(nil)

// At binds the view to an explicit topology version and source row views.
func (gv *GraphView) At(c *graph.CSR, v, e storage.RowView) *GraphViewAt {
	return &GraphViewAt{GV: gv, Topo: c, V: v, E: e}
}

// Live binds the view to its current topology and the live source
// tables. Writer side: callers hold the engine write lock.
func (gv *GraphView) Live() *GraphViewAt {
	return gv.At(gv.Version(), gv.vtab, gv.etab)
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
