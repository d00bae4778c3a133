package catalog

import (
	"fmt"
	"strings"
	"sync/atomic"

	"grfusion/internal/expr"
	"grfusion/internal/graph"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// AttrMap maps one exposed graph-view attribute to a column of its
// relational source, e.g. `lstname = lname` in Listing 1 of the paper.
type AttrMap struct {
	// Name is the attribute name exposed by the graph view.
	Name string
	// Source is the column name in the relational source.
	Source string

	pos  int
	kind types.Kind
}

// Reserved attribute names inside VERTEXES(...) / EDGES(...) clauses.
const (
	AttrID   = "ID"
	AttrFrom = "FROM"
	AttrTo   = "TO"
)

// Extended-tuple property columns appended to the exposed schemas (§5.2).
const (
	PropFanOut = "FANOUT"
	PropFanIn  = "FANIN"
	// PathColumn is the single column produced by a PathScan; it carries a
	// KindPath value that path expressions decompose.
	PathColumn = "__path"
)

// GraphView is a materialized graph view: the catalog definition, the
// native topology, and the exposed Vertex/Edge schemas (§3).
//
// The topology is a graph.Topology — an immutable CSR main plus an
// append-only delta — that the §3.3 hooks below maintain inside the
// mutating statement. Readers never touch it: the engine binds an O(1)
// version of it (Version) into every published state.
type GraphView struct {
	Name     string
	Directed bool

	// VertexSource and EdgeSource are the relational sources' table names.
	VertexSource, EdgeSource string

	// VertexAttrs and EdgeAttrs are the declared attribute mappings, in
	// declaration order. VertexAttrs contains an ID entry; EdgeAttrs
	// contains ID, FROM and TO entries.
	VertexAttrs, EdgeAttrs []AttrMap

	vtab, etab *storage.Table
	vIDPos     int
	eIDPos     int
	eFromPos   int
	eToPos     int

	// topo is the singleton native topology (§3.2). Writer-side state,
	// guarded by the engine write lock.
	topo *graph.Topology

	vSchema, eSchema *types.Schema

	// maintOps counts incremental §3.3 maintenance operations applied to
	// the topology since the view was built (SHOW METRICS maint_ops).
	maintOps atomic.Int64

	// csrHits and csrMisses count traversal reads (GraphViewAt.CSR) of a
	// version whose delta was empty and of one that had to walk a delta.
	csrHits   atomic.Int64
	csrMisses atomic.Int64

	// columnBuilds counts the typed columns the view's pinned bindings
	// laid out (GraphViewAt.Column).
	columnBuilds atomic.Int64

	// badWeights counts, per declared edge attribute (EdgeAttrs order),
	// the live edge rows whose value there is not a weight SPScan accepts
	// (acceptsWeight). The build and the §3.3 hooks keep it, rollbacks
	// included, since they undo through the same hooks; At copies it into
	// each binding (GraphViewAt.WeightsVouched). Writer side.
	badWeights []int

	// last is the binding At handed out most recently, returned again
	// while the topology version and both source views are unchanged.
	// Writer side.
	last *GraphViewAt
}

// NewGraphView validates a definition against its source tables and builds
// the topology with a single pass over the sources (§3.2). The sources may
// be the same table.
func NewGraphView(name string, directed bool, vtab, etab *storage.Table,
	vertexAttrs, edgeAttrs []AttrMap) (*GraphView, error) {

	gv := &GraphView{
		Name:         name,
		Directed:     directed,
		VertexSource: vtab.Name(),
		EdgeSource:   etab.Name(),
		VertexAttrs:  append([]AttrMap(nil), vertexAttrs...),
		EdgeAttrs:    append([]AttrMap(nil), edgeAttrs...),
		vtab:         vtab,
		etab:         etab,
		vIDPos:       -1,
		eIDPos:       -1,
		eFromPos:     -1,
		eToPos:       -1,
	}
	if err := gv.resolveAttrs(); err != nil {
		return nil, err
	}
	gv.buildSchemas()
	if err := gv.build(); err != nil {
		return nil, err
	}
	return gv, nil
}

// resolveAttrs resolves every declared attribute to its source column and
// rejects a definition whose exposed names collide: two attributes of one
// element kind with the same name (case-insensitively), or a vertex
// attribute named after a computed property. NewGraphView is the one
// constructor, so CREATE GRAPH VIEW, checkpoint restore and WAL replay all
// pass through here.
func (gv *GraphView) resolveAttrs() error {
	resolve := func(t *storage.Table, attrs []AttrMap, kindMust, reserved map[string]bool) error {
		seen := map[string]bool{}
		for i := range attrs {
			a := &attrs[i]
			up := strings.ToUpper(a.Name)
			switch {
			case reserved[up]:
				return fmt.Errorf("graph view %s: %s is a computed vertex property and cannot name an attribute",
					gv.Name, a.Name)
			case seen[up]:
				return fmt.Errorf("graph view %s: attribute %s is declared twice", gv.Name, a.Name)
			}
			seen[up] = true
			p, err := t.Schema().Resolve("", a.Source)
			if err != nil {
				return fmt.Errorf("graph view %s: attribute %s: %v", gv.Name, a.Name, err)
			}
			a.pos = p
			a.kind = t.Schema().Columns[p].Type
			if kindMust[up] && a.kind != types.KindInt {
				return fmt.Errorf("graph view %s: attribute %s must map to a BIGINT column, got %s",
					gv.Name, a.Name, a.kind)
			}
		}
		return nil
	}
	if err := resolve(gv.vtab, gv.VertexAttrs, map[string]bool{AttrID: true},
		map[string]bool{PropFanOut: true, PropFanIn: true}); err != nil {
		return err
	}
	if err := resolve(gv.etab, gv.EdgeAttrs,
		map[string]bool{AttrID: true, AttrFrom: true, AttrTo: true}, nil); err != nil {
		return err
	}
	for i := range gv.VertexAttrs {
		if strings.EqualFold(gv.VertexAttrs[i].Name, AttrID) {
			gv.vIDPos = gv.VertexAttrs[i].pos
		}
	}
	for i := range gv.EdgeAttrs {
		switch strings.ToUpper(gv.EdgeAttrs[i].Name) {
		case AttrID:
			gv.eIDPos = gv.EdgeAttrs[i].pos
		case AttrFrom:
			gv.eFromPos = gv.EdgeAttrs[i].pos
		case AttrTo:
			gv.eToPos = gv.EdgeAttrs[i].pos
		}
	}
	switch {
	case gv.vIDPos < 0:
		return fmt.Errorf("graph view %s: VERTEXES clause must declare ID", gv.Name)
	case gv.eIDPos < 0:
		return fmt.Errorf("graph view %s: EDGES clause must declare ID", gv.Name)
	case gv.eFromPos < 0 || gv.eToPos < 0:
		return fmt.Errorf("graph view %s: EDGES clause must declare FROM and TO", gv.Name)
	}
	return nil
}

func (gv *GraphView) buildSchemas() {
	vcols := make([]types.Column, 0, len(gv.VertexAttrs)+2)
	for _, a := range gv.VertexAttrs {
		vcols = append(vcols, types.Column{Name: a.Name, Type: a.kind})
	}
	vcols = append(vcols,
		types.Column{Name: PropFanOut, Type: types.KindInt},
		types.Column{Name: PropFanIn, Type: types.KindInt})
	gv.vSchema = types.NewSchema(vcols...)

	ecols := make([]types.Column, 0, len(gv.EdgeAttrs))
	for _, a := range gv.EdgeAttrs {
		ecols = append(ecols, types.Column{Name: a.Name, Type: a.kind})
	}
	gv.eSchema = types.NewSchema(ecols...)
}

func (gv *GraphView) build() error {
	gv.badWeights = make([]int, len(gv.EdgeAttrs))
	t, err := gv.buildTopology(gv.vtab, gv.etab, gv.badWeights)
	if err != nil {
		return err
	}
	gv.topo = t
	return nil
}

// buildTopology lays out a fresh topology from the rows of v and e — the
// live source tables at CREATE GRAPH VIEW, a pinned version's snapshots
// for a rebuild — in a single pass over each (§3.2), counting the edge
// rows' bad weights into bad unless it is nil.
func (gv *GraphView) buildTopology(v, e storage.RowView, bad []int) (*graph.Topology, error) {
	b := graph.NewBuilder(gv.Name, gv.Directed, v.Len(), e.Len())
	var err error
	v.Scan(func(id storage.RowID, row types.Row) bool {
		var vid int64
		vid, err = intAttr(row, gv.vIDPos, "vertex ID")
		if err == nil {
			err = b.AddVertex(vid, uint64(id))
		}
		return err == nil
	})
	if err == nil {
		e.Scan(func(id storage.RowID, row types.Row) bool {
			err = gv.addEdgeFromRow(b.AddEdge, id, row)
			if err == nil && bad != nil {
				gv.countWeights(bad, row, 1)
			}
			return err == nil
		})
	}
	var t *graph.Topology
	if err == nil {
		t, err = b.Build()
	}
	if err != nil {
		return nil, fmt.Errorf("graph view %s: %v", gv.Name, err)
	}
	return t, nil
}

// RebuildTopology reconstructs a fresh topology from the source rows of
// one version (v and e) with the same single pass CREATE GRAPH VIEW uses,
// without touching the maintained one, and materializes it. The
// differential-testing oracle diffs the result against the incrementally
// maintained topology to verify the §3.3 online-maintenance invariant:
// maintained topology ≡ rebuilt topology after any DML history.
func (gv *GraphView) RebuildTopology(v, e storage.RowView) (*graph.Graph, error) {
	t, err := gv.buildTopology(v, e, nil)
	if err != nil {
		return nil, err
	}
	return t.Version().Graph(), nil
}

// acceptsWeight reports whether SPScan takes v as an edge weight: a
// number, not NaN, not negative.
func acceptsWeight(v types.Value) bool { return v.IsNumeric() && v.AsFloat() >= 0 }

// countWeights adds d to bad's count of every edge attribute whose value
// in the edge row is not a weight SPScan accepts.
func (gv *GraphView) countWeights(bad []int, row types.Row, d int) {
	for i, a := range gv.EdgeAttrs {
		if !acceptsWeight(row[a.pos]) {
			bad[i] += d
		}
	}
}

// addEdgeFromRow reads an edge tuple's identifier and endpoints and hands
// them to add (a Builder's or the Topology's AddEdge).
func (gv *GraphView) addEdgeFromRow(add func(id, from, to int64, tuple uint64) error,
	id storage.RowID, row types.Row) error {
	eid, err := intAttr(row, gv.eIDPos, "edge ID")
	if err != nil {
		return err
	}
	from, err := intAttr(row, gv.eFromPos, "edge FROM")
	if err != nil {
		return err
	}
	to, err := intAttr(row, gv.eToPos, "edge TO")
	if err != nil {
		return err
	}
	return add(eid, from, to, uint64(id))
}

func intAttr(row types.Row, pos int, what string) (int64, error) {
	v := row[pos]
	if v.Kind != types.KindInt {
		return 0, fmt.Errorf("%s value %s is not a BIGINT", what, v)
	}
	return v.I, nil
}

// Version binds the topology's current state as an immutable version in
// O(1) — what the engine publishes. Writer side: callers hold the engine
// write lock.
func (gv *GraphView) Version() *graph.CSR { return gv.topo.Version() }

// MergeTopology folds the topology's delta into a fresh main now instead
// of at its size threshold (a no-op on an empty delta). Writer side.
func (gv *GraphView) MergeTopology() { gv.topo.Merge() }

// SettleTopology folds the delta into a fresh main if it has outgrown its
// size threshold; the engine calls it before binding every version it
// publishes. Writer side.
func (gv *GraphView) SettleTopology() { gv.topo.Settle() }

// ReserveFor presizes the topology delta for about n further rows landing
// in the named source table, when it is the edge source — a bulk load's
// row-count hint. Writer side.
func (gv *GraphView) ReserveFor(table string, n int) {
	if gv.IsEdgeSource(table) {
		gv.topo.ReserveEdges(n)
	}
}

// CSRStats reports, for SHOW METRICS and EXPLAIN ANALYZE: how many CSR
// mains were laid out (creation plus merges) and in how long; how many
// traversal reads found an empty delta (hits) or walked one (misses); and
// the current main's approximate size. All sources are atomics, so it is
// safe anywhere.
func (gv *GraphView) CSRStats() (builds, buildNS, hits, misses, bytes int64) {
	builds, buildNS, bytes = gv.topo.Stats()
	return builds, buildNS, gv.csrHits.Load(), gv.csrMisses.Load(), bytes
}

// ColumnBuilds reports how many typed columns — pushed-filter and SPScan
// weight columns — the view's bindings have laid out. Safe anywhere.
func (gv *GraphView) ColumnBuilds() int64 { return gv.columnBuilds.Load() }

// MaintOps reports how many incremental maintenance operations have been
// applied to the topology since the view was built.
func (gv *GraphView) MaintOps() int64 { return gv.maintOps.Load() }

// VertexTable returns the vertexes relational-source.
func (gv *GraphView) VertexTable() *storage.Table { return gv.vtab }

// EdgeTable returns the edges relational-source.
func (gv *GraphView) EdgeTable() *storage.Table { return gv.etab }

// VertexSchema returns the exposed schema of GV.VERTEXES: the declared
// attributes followed by the FanOut and FanIn properties (§5.2).
func (gv *GraphView) VertexSchema() *types.Schema { return gv.vSchema }

// EdgeSchema returns the exposed schema of GV.EDGES.
func (gv *GraphView) EdgeSchema() *types.Schema { return gv.eSchema }

// ResolveAttr resolves an attribute name of the view's vertexes or edges,
// case-insensitively, to a reference read in O(1) per element: a declared
// attribute's source column, or for vertexes the FanOut/FanIn property
// (§5.2). Plans resolve every attribute they read here once, at bind or
// plan time (expr.GraphSchema: the same in every version).
func (gv *GraphView) ResolveAttr(elem expr.ElemKind, name string) (expr.AttrRef, error) {
	attrs, what := gv.EdgeAttrs, "edge"
	if elem == expr.ElemVertexes {
		attrs, what = gv.VertexAttrs, "vertex"
		switch up := strings.ToUpper(name); up {
		case PropFanOut:
			return expr.AttrRef{Name: up, Src: expr.AttrFanOut, Pos: -1, Kind: types.KindInt}, nil
		case PropFanIn:
			return expr.AttrRef{Name: up, Src: expr.AttrFanIn, Pos: -1, Kind: types.KindInt}, nil
		}
	}
	for _, a := range attrs {
		if strings.EqualFold(a.Name, name) {
			return expr.AttrRef{Name: a.Name, Pos: a.pos, Kind: a.kind}, nil
		}
	}
	return expr.AttrRef{}, fmt.Errorf("graph view %s: unknown %s attribute %q", gv.Name, what, name)
}

// EdgeAttrValue reads one edge attribute by name from the live view. The
// engine never reads by name; this stays for the layered benchmark's
// kernel twin (benchmark/twin.go), whose filters and weights call it.
func (gv *GraphView) EdgeAttrValue(e *graph.Edge, name string) (types.Value, error) {
	ref, err := gv.ResolveAttr(expr.ElemEdges, name)
	if err != nil {
		return types.Null(), err
	}
	return gv.edgeAttr(gv.etab, e, ref)
}

// --- Online maintenance hooks (§3.3), invoked by the engine inside the
// --- mutating transaction.

// IsVertexSource reports whether the named table is this view's vertexes
// relational-source.
func (gv *GraphView) IsVertexSource(table string) bool {
	return strings.EqualFold(gv.VertexSource, table)
}

// IsEdgeSource reports whether the named table is this view's edges
// relational-source.
func (gv *GraphView) IsEdgeSource(table string) bool {
	return strings.EqualFold(gv.EdgeSource, table)
}

// EdgeRef identifies one topology edge and its tuple pointer, used by the
// engine to cascade vertex deletions onto the edges relational-source.
type EdgeRef struct {
	EdgeID int64
	Tuple  storage.RowID
}

// IncidentEdges returns the edges incident to the vertex with the given
// identifier (each once), or nil if the vertex is absent.
func (gv *GraphView) IncidentEdges(vertexID int64) []EdgeRef {
	var out []EdgeRef
	for _, e := range gv.topo.IncidentEdges(vertexID) {
		out = append(out, EdgeRef{EdgeID: e.ID, Tuple: storage.RowID(e.Tuple)})
	}
	return out
}

// OnInsert maintains the topology after a tuple is inserted into table.
func (gv *GraphView) OnInsert(table string, id storage.RowID, row types.Row) error {
	if gv.IsVertexSource(table) || gv.IsEdgeSource(table) {
		gv.maintOps.Add(1)
	}
	if gv.IsVertexSource(table) {
		vid, err := intAttr(row, gv.vIDPos, "vertex ID")
		if err != nil {
			return fmt.Errorf("graph view %s: %v", gv.Name, err)
		}
		if err := gv.topo.AddVertex(vid, uint64(id)); err != nil {
			return err
		}
	}
	if gv.IsEdgeSource(table) {
		if err := gv.addEdgeFromRow(gv.topo.AddEdge, id, row); err != nil {
			return fmt.Errorf("graph view %s: %v", gv.Name, err)
		}
		gv.countWeights(gv.badWeights, row, 1)
	}
	return nil
}

// DebugSkipEdgeDelete, when true, makes OnDelete skip removing deleted
// edges from the topology — a deliberately broken §3.3 maintenance path.
// It exists ONLY so the differential-testing oracle can prove its
// rebuild-from-scratch maintenance check catches real maintenance bugs
// (internal/oracle injects it and asserts a violation surfaces within one
// run). Never set it outside tests.
var DebugSkipEdgeDelete bool

// OnDelete maintains the topology after a tuple is deleted from table.
// Vertex deletions expect the engine to have cascaded incident edge tuples
// first (via IncidentEdges); any edges still present are removed here.
func (gv *GraphView) OnDelete(table string, row types.Row) error {
	if gv.IsVertexSource(table) || gv.IsEdgeSource(table) {
		gv.maintOps.Add(1)
	}
	if gv.IsEdgeSource(table) && !DebugSkipEdgeDelete {
		eid, err := intAttr(row, gv.eIDPos, "edge ID")
		if err != nil {
			return fmt.Errorf("graph view %s: %v", gv.Name, err)
		}
		gv.topo.RemoveEdge(eid) // absent is fine: may already be cascaded
		gv.countWeights(gv.badWeights, row, -1)
	}
	if gv.IsVertexSource(table) {
		vid, err := intAttr(row, gv.vIDPos, "vertex ID")
		if err != nil {
			return fmt.Errorf("graph view %s: %v", gv.Name, err)
		}
		gv.topo.RemoveVertex(vid)
	}
	return nil
}

// OnUpdate maintains the topology after a tuple of table changes in place.
// Identifier updates rename the graph element (§3.3.1); endpoint updates
// rewire the edge. Attribute-only updates leave the topology — and its
// delta — untouched.
func (gv *GraphView) OnUpdate(table string, id storage.RowID, oldRow, newRow types.Row) error {
	if gv.IsVertexSource(table) || gv.IsEdgeSource(table) {
		gv.maintOps.Add(1)
	}
	if gv.IsVertexSource(table) {
		oldID, err := intAttr(oldRow, gv.vIDPos, "vertex ID")
		if err != nil {
			return err
		}
		newID, err := intAttr(newRow, gv.vIDPos, "vertex ID")
		if err != nil {
			return err
		}
		if oldID != newID {
			if err := gv.topo.RenameVertex(oldID, newID); err != nil {
				return fmt.Errorf("graph view %s: %v", gv.Name, err)
			}
		}
	}
	if gv.IsEdgeSource(table) {
		oldID, err := intAttr(oldRow, gv.eIDPos, "edge ID")
		if err != nil {
			return err
		}
		newID, err := intAttr(newRow, gv.eIDPos, "edge ID")
		if err != nil {
			return err
		}
		if oldID != newID {
			if err := gv.topo.RenameEdge(oldID, newID); err != nil {
				return fmt.Errorf("graph view %s: %v", gv.Name, err)
			}
		}
		oldFrom, _ := intAttr(oldRow, gv.eFromPos, "edge FROM")
		newFrom, err := intAttr(newRow, gv.eFromPos, "edge FROM")
		if err != nil {
			return err
		}
		oldTo, _ := intAttr(oldRow, gv.eToPos, "edge TO")
		newTo, err := intAttr(newRow, gv.eToPos, "edge TO")
		if err != nil {
			return err
		}
		if oldFrom != newFrom || oldTo != newTo {
			gv.topo.RemoveEdge(newID)
			if err := gv.topo.AddEdge(newID, newFrom, newTo, uint64(id)); err != nil {
				// Rejected rewire (e.g. dangling endpoint): restore the old
				// embedding so the aborted statement leaves the topology
				// with exactly the elements it had.
				if rerr := gv.topo.AddEdge(newID, oldFrom, oldTo, uint64(id)); rerr != nil {
					return fmt.Errorf("graph view %s: %v (topology restore also failed: %v)",
						gv.Name, err, rerr)
				}
				return fmt.Errorf("graph view %s: %v", gv.Name, err)
			}
		}
		gv.countWeights(gv.badWeights, oldRow, -1)
		gv.countWeights(gv.badWeights, newRow, 1)
	}
	return nil
}

// VertexIDSourceColumn returns the position of the vertex-ID column within
// the vertexes relational-source schema.
func (gv *GraphView) VertexIDSourceColumn() int { return gv.vIDPos }

// EdgeEndpointSourceColumns returns the positions of the FROM and TO
// columns within the edges relational-source schema, used by the engine to
// preserve referential integrity when a vertex identifier is updated.
func (gv *GraphView) EdgeEndpointSourceColumns() (from, to int) { return gv.eFromPos, gv.eToPos }
