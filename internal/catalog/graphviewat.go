package catalog

import (
	"fmt"
	"math"
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
	// never lays out a weight column.
	live bool
	// relaxed counts the edges this binding's SPScans have relaxed
	// (AddRelaxed); weights holds the columns Weights laid out, guarded by mu.
	relaxed atomic.Int64
	mu      sync.Mutex
	weights []weightCol
	// badWeights is the view's badWeights as of the bound version, one
	// count per declared edge attribute; nil on a binding At did not make.
	badWeights []int
}

// weightCol is one SPScan weight column: the edge attribute at source
// position pos, by edge index of the bound version.
type weightCol struct {
	pos int
	col []float64
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

// Weights returns the SPScan weight column of the edge attribute ref over
// the bound version as graph.CSR.EdgeColumn lays it out (by traversal
// arc without a delta, by edge index with one), or nil while the
// traversal asks its weight function for every edge. A pinned
// binding lays the column out from its own edge view, once, when its
// SPScans have together relaxed as many edges as the version holds, so
// the build never costs more than the traversal work already done on the
// binding. The writer's Live binding never builds one. NaN stands for
// every weight a column cannot hold — NULL, non-numeric, a dangling tuple
// pointer, NaN itself — and sends the edge to the weight function, which
// reports it exactly as without a column.
func (at *GraphViewAt) Weights(ref expr.AttrRef) []float64 {
	if ne := int64(at.Topo.NumEdges()); at.live || ne == 0 || at.relaxed.Load() < ne {
		return nil
	}
	at.mu.Lock()
	defer at.mu.Unlock()
	for _, w := range at.weights {
		if w.pos == ref.Pos {
			return w.col
		}
	}
	col := at.Topo.EdgeColumn(func(e *graph.Edge) float64 {
		if row, ok := at.E.Get(storage.RowID(e.Tuple)); ok && row[ref.Pos].IsNumeric() {
			return row[ref.Pos].AsFloat()
		}
		return math.NaN()
	})
	at.weights = append(at.weights, weightCol{pos: ref.Pos, col: col})
	at.GV.weightColBuilds.Add(1)
	return col
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

// AddRelaxed credits n edges relaxed by an SPScan over the binding toward
// its weight column's build (Weights).
func (at *GraphViewAt) AddRelaxed(n int64) { at.relaxed.Add(n) }

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
