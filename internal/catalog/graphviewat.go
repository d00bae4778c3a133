package catalog

import (
	"fmt"
	"strings"

	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// GraphViewAt is a graph view bound to one engine version: a topology
// version plus row views of the relational sources. A pinned reader
// holds a GraphViewAt whose Topo/V/E are immutable, so every traversal,
// tuple-pointer dereference and fan-out read resolves against the version
// it pinned, regardless of concurrent writers; the writer side uses Live,
// which binds the current topology and the live tables. It implements the
// same attribute-accessor surface as GraphView (expr.GraphAccessor).
type GraphViewAt struct {
	GV   *GraphView
	Topo *graph.CSR
	V    storage.RowView
	E    storage.RowView
}

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

// VertexSchema returns the exposed schema of GV.VERTEXES.
func (at *GraphViewAt) VertexSchema() *types.Schema { return at.GV.vSchema }

// EdgeSchema returns the exposed schema of GV.EDGES.
func (at *GraphViewAt) EdgeSchema() *types.Schema { return at.GV.eSchema }

// VertexRow materializes the extended tuple of a vertex against the bound
// version.
func (at *GraphViewAt) VertexRow(v *graph.Vertex) (types.Row, error) {
	return vertexRowOf(at.GV, at.Topo, at.V, v)
}

// EdgeRow materializes the extended tuple of an edge against the bound
// version.
func (at *GraphViewAt) EdgeRow(e *graph.Edge) (types.Row, error) {
	return edgeRowOf(at.GV, at.E, e)
}

// VertexAttrValue reads one vertex attribute or property against the
// bound version.
func (at *GraphViewAt) VertexAttrValue(v *graph.Vertex, name string) (types.Value, error) {
	return vertexAttrValueOf(at.GV, at.Topo, at.V, v, name)
}

// EdgeAttrValue reads one edge attribute against the bound version.
func (at *GraphViewAt) EdgeAttrValue(e *graph.Edge, name string) (types.Value, error) {
	return edgeAttrValueOf(at.GV, at.E, e, name)
}

// HasVertexAttr reports whether name is a declared vertex attribute or
// property (pure metadata; identical across versions).
func (at *GraphViewAt) HasVertexAttr(name string) bool { return at.GV.HasVertexAttr(name) }

// HasEdgeAttr reports whether name is a declared edge attribute.
func (at *GraphViewAt) HasEdgeAttr(name string) bool { return at.GV.HasEdgeAttr(name) }

// EdgeAttrSourcePos resolves a declared edge attribute to its source
// column position.
func (at *GraphViewAt) EdgeAttrSourcePos(name string) (int, bool) {
	return at.GV.EdgeAttrSourcePos(name)
}

// VertexAttrSourcePos resolves a declared vertex attribute to its source
// column position.
func (at *GraphViewAt) VertexAttrSourcePos(name string) (int, bool) {
	return at.GV.VertexAttrSourcePos(name)
}

// --- Version-parameterized accessors shared by GraphView (live) and
// --- GraphViewAt (pinned).

func vertexRowOf(gv *GraphView, g *graph.CSR, src storage.RowView, v *graph.Vertex) (types.Row, error) {
	row, ok := src.Get(storage.RowID(v.Tuple))
	if !ok {
		return nil, fmt.Errorf("graph view %s: dangling tuple pointer for vertex %d", gv.Name, v.ID)
	}
	out := make(types.Row, 0, len(gv.VertexAttrs)+2)
	for _, a := range gv.VertexAttrs {
		out = append(out, row[a.pos])
	}
	out = append(out,
		types.NewInt(int64(g.FanOut(v))),
		types.NewInt(int64(g.FanIn(v))))
	return out, nil
}

func edgeRowOf(gv *GraphView, src storage.RowView, e *graph.Edge) (types.Row, error) {
	row, ok := src.Get(storage.RowID(e.Tuple))
	if !ok {
		return nil, fmt.Errorf("graph view %s: dangling tuple pointer for edge %d", gv.Name, e.ID)
	}
	out := make(types.Row, 0, len(gv.EdgeAttrs))
	for _, a := range gv.EdgeAttrs {
		out = append(out, row[a.pos])
	}
	return out, nil
}

func vertexAttrValueOf(gv *GraphView, g *graph.CSR, src storage.RowView, v *graph.Vertex, name string) (types.Value, error) {
	switch strings.ToUpper(name) {
	case PropFanOut:
		return types.NewInt(int64(g.FanOut(v))), nil
	case PropFanIn:
		return types.NewInt(int64(g.FanIn(v))), nil
	}
	for _, a := range gv.VertexAttrs {
		if strings.EqualFold(a.Name, name) {
			row, ok := src.Get(storage.RowID(v.Tuple))
			if !ok {
				return types.Null(), fmt.Errorf("graph view %s: dangling tuple pointer for vertex %d", gv.Name, v.ID)
			}
			return row[a.pos], nil
		}
	}
	return types.Null(), fmt.Errorf("graph view %s: unknown vertex attribute %q", gv.Name, name)
}

func edgeAttrValueOf(gv *GraphView, src storage.RowView, e *graph.Edge, name string) (types.Value, error) {
	for _, a := range gv.EdgeAttrs {
		if strings.EqualFold(a.Name, name) {
			row, ok := src.Get(storage.RowID(e.Tuple))
			if !ok {
				return types.Null(), fmt.Errorf("graph view %s: dangling tuple pointer for edge %d", gv.Name, e.ID)
			}
			return row[a.pos], nil
		}
	}
	return types.Null(), fmt.Errorf("graph view %s: unknown edge attribute %q", gv.Name, name)
}
