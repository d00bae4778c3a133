// Package graph implements the native in-memory graph structure that backs
// GRFusion's graph views (§3 of the paper).
//
// A topology stores only vertexes, edges and adjacency. Vertex and edge
// attributes stay in their relational sources; each element carries a
// tuple pointer (a storage RowID) so attributes are reachable in O(1), and
// identifier lookups give the reverse O(1) navigation from the relational
// store into the graph (§3.2). The topology therefore acts as a traversal
// index over the relational data.
//
// The engine maintains each view as a Topology (topology.go): an immutable
// int32 CSR main plus an append-only delta, read through O(1) versions
// (CSR). Graph, in this file, is the pointer-based reference topology: the
// differential oracle, the tests and the benchmark build one directly or
// materialize one from a version (CSR.Graph), and the pointer kernels of
// traverse.go and shortest.go walk it. The engine never maintains one.
//
// Graphs are not internally synchronized.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Vertex is one node of a graph view's topology.
type Vertex struct {
	// ID is the vertex identifier drawn from the vertexes relational-source.
	ID int64
	// Tuple is the tuple pointer (RowID) into the vertexes relational-source.
	Tuple uint64
	// Out and In are the adjacency lists of outgoing and incoming edges,
	// maintained by Graph only: the records a Topology hands out leave
	// them empty and keep adjacency in the CSR.
	Out []*Edge
	In  []*Edge
}

// Edge is one edge of a graph view's topology.
type Edge struct {
	// ID is the edge identifier drawn from the edges relational-source.
	ID int64
	// From and To are the edge endpoints as stored (for undirected graphs
	// the traversal order may be either way).
	From, To *Vertex
	// Tuple is the tuple pointer (RowID) into the edges relational-source.
	Tuple uint64

	// outPos/inPos are the edge's positions within From.Out and To.In,
	// maintained by AddEdge/removal so deleting an edge from a hub vertex
	// is O(1) swap-and-truncate instead of an O(degree) scan. Adjacency
	// order is therefore insertion order only until the first removal.
	outPos, inPos int32
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e *Edge) Other(v *Vertex) *Vertex {
	switch v {
	case e.From:
		return e.To
	case e.To:
		return e.From
	default:
		panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %d", v.ID, e.ID))
	}
}

// Graph is a pointer-based topology: the reference the oracle's kernels
// walk, and what CSR.Graph materializes a version into.
type Graph struct {
	name     string
	directed bool

	vertices map[int64]*Vertex
	edges    map[int64]*Edge

	// vertOrder/edgeOrder cache the ascending-ID iteration order served by
	// Vertices/Edges, so repeated scans stop paying O(n log n). Built lazily
	// under orderMu (concurrent readers share one build); mutators drop them
	// by storing nil.
	vertOrder atomic.Pointer[[]*Vertex]
	edgeOrder atomic.Pointer[[]*Edge]
	orderMu   sync.Mutex
}

// mutation kinds for topologyChanged.
const (
	changedVertices = 1 << iota
	changedEdges
)

// topologyChanged drops the order caches a mutation invalidates.
func (g *Graph) topologyChanged(what int) {
	if what&changedVertices != 0 {
		g.vertOrder.Store(nil)
	}
	if what&changedEdges != 0 {
		g.edgeOrder.Store(nil)
	}
}

// New creates an empty graph topology.
func New(name string, directed bool) *Graph {
	return &Graph{
		name:     name,
		directed: directed,
		vertices: make(map[int64]*Vertex),
		edges:    make(map[int64]*Edge),
	}
}

// Name returns the graph-view name this topology belongs to.
func (g *Graph) Name() string { return g.name }

// Directed reports whether edges are one-way.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the vertex with the given id, or nil.
func (g *Graph) Vertex(id int64) *Vertex { return g.vertices[id] }

// Edge returns the edge with the given id, or nil.
func (g *Graph) Edge(id int64) *Edge { return g.edges[id] }

// AddVertex inserts a vertex with the given identifier and tuple pointer.
func (g *Graph) AddVertex(id int64, tuple uint64) (*Vertex, error) {
	if _, dup := g.vertices[id]; dup {
		return nil, fmt.Errorf("graph %s: duplicate vertex id %d", g.name, id)
	}
	v := &Vertex{ID: id, Tuple: tuple}
	g.vertices[id] = v
	g.topologyChanged(changedVertices)
	return v, nil
}

// AddEdge inserts an edge between existing vertexes. Per §3.1 the endpoints
// of every edge are constrained to be members of the vertex set.
func (g *Graph) AddEdge(id, from, to int64, tuple uint64) (*Edge, error) {
	if _, dup := g.edges[id]; dup {
		return nil, fmt.Errorf("graph %s: duplicate edge id %d", g.name, id)
	}
	fv := g.vertices[from]
	if fv == nil {
		return nil, fmt.Errorf("graph %s: edge %d references missing vertex %d", g.name, id, from)
	}
	tv := g.vertices[to]
	if tv == nil {
		return nil, fmt.Errorf("graph %s: edge %d references missing vertex %d", g.name, id, to)
	}
	e := &Edge{ID: id, From: fv, To: tv, Tuple: tuple}
	g.edges[id] = e
	e.outPos = int32(len(fv.Out))
	fv.Out = append(fv.Out, e)
	e.inPos = int32(len(tv.In))
	tv.In = append(tv.In, e)
	g.topologyChanged(changedEdges)
	return e, nil
}

// RemoveEdge deletes the edge with the given id, reporting whether it existed.
func (g *Graph) RemoveEdge(id int64) bool {
	e, ok := g.edges[id]
	if !ok {
		return false
	}
	delete(g.edges, id)
	e.From.Out = removeOut(e.From.Out, e)
	e.To.In = removeIn(e.To.In, e)
	g.topologyChanged(changedEdges)
	return true
}

// RemoveVertex deletes a vertex and every incident edge, returning the ids
// of the cascaded edges (sorted) and whether the vertex existed.
func (g *Graph) RemoveVertex(id int64) (cascaded []int64, ok bool) {
	v, ok := g.vertices[id]
	if !ok {
		return nil, false
	}
	for _, e := range v.Out {
		cascaded = append(cascaded, e.ID)
	}
	for _, e := range v.In {
		// A self-loop appears in both lists; report it once.
		if e.From != e.To {
			cascaded = append(cascaded, e.ID)
		}
	}
	sort.Slice(cascaded, func(i, j int) bool { return cascaded[i] < cascaded[j] })
	for _, eid := range cascaded {
		g.RemoveEdge(eid)
	}
	delete(g.vertices, id)
	g.topologyChanged(changedVertices)
	return cascaded, true
}

// RenameVertex changes a vertex identifier in place, keeping adjacency
// intact. It supports §3.3.1's identifier-consistency maintenance when the
// relational id attribute is updated.
func (g *Graph) RenameVertex(old, new int64) error {
	v, ok := g.vertices[old]
	if !ok {
		return fmt.Errorf("graph %s: rename of missing vertex %d", g.name, old)
	}
	if old == new {
		return nil
	}
	if _, dup := g.vertices[new]; dup {
		return fmt.Errorf("graph %s: rename to duplicate vertex id %d", g.name, new)
	}
	delete(g.vertices, old)
	v.ID = new
	g.vertices[new] = v
	g.topologyChanged(changedVertices)
	return nil
}

// RenameEdge changes an edge identifier in place.
func (g *Graph) RenameEdge(old, new int64) error {
	e, ok := g.edges[old]
	if !ok {
		return fmt.Errorf("graph %s: rename of missing edge %d", g.name, old)
	}
	if old == new {
		return nil
	}
	if _, dup := g.edges[new]; dup {
		return fmt.Errorf("graph %s: rename to duplicate edge id %d", g.name, new)
	}
	delete(g.edges, old)
	e.ID = new
	g.edges[new] = e
	g.topologyChanged(changedEdges)
	return nil
}

// removeOut deletes e from an Out adjacency list in O(1) by swapping the
// last entry into e's maintained position. Adjacency order is not
// preserved across removals; traversal output order over a given topology
// state is still deterministic because every structure (pointer kernels
// and CSR alike) reads the same lists.
func removeOut(list []*Edge, e *Edge) []*Edge {
	last := len(list) - 1
	if i := int(e.outPos); i != last {
		moved := list[last]
		list[i] = moved
		moved.outPos = int32(i)
	}
	list[last] = nil
	return list[:last]
}

// removeIn is removeOut for an In adjacency list.
func removeIn(list []*Edge, e *Edge) []*Edge {
	last := len(list) - 1
	if i := int(e.inPos); i != last {
		moved := list[last]
		list[i] = moved
		moved.inPos = int32(i)
	}
	list[last] = nil
	return list[:last]
}

// FanOut returns the number of edges leaving v under the graph's
// directedness: the out-degree for directed graphs, the full degree for
// undirected ones (every incident edge can be traversed outward).
func (g *Graph) FanOut(v *Vertex) int {
	if g.directed {
		return len(v.Out)
	}
	return len(v.Out) + len(v.In)
}

// FanIn returns the number of edges entering v (the full degree for
// undirected graphs).
func (g *Graph) FanIn(v *Vertex) int {
	if g.directed {
		return len(v.In)
	}
	return len(v.Out) + len(v.In)
}

// AvgFanOut returns the average fan-out statistic the optimizer keeps per
// graph view (§6.3) to choose between BFS and DFS physical operators.
func (g *Graph) AvgFanOut() float64 {
	if len(g.vertices) == 0 {
		return 0
	}
	if g.directed {
		return float64(len(g.edges)) / float64(len(g.vertices))
	}
	return 2 * float64(len(g.edges)) / float64(len(g.vertices))
}

// sortedVertices returns (building and caching on first use) the vertex
// set in ascending id order. The returned slice is immutable: mutators
// drop the cache rather than edit it, so concurrent readers may share it.
func (g *Graph) sortedVertices() []*Vertex {
	if p := g.vertOrder.Load(); p != nil {
		return *p
	}
	g.orderMu.Lock()
	defer g.orderMu.Unlock()
	if p := g.vertOrder.Load(); p != nil {
		return *p
	}
	vs := make([]*Vertex, 0, len(g.vertices))
	for _, v := range g.vertices {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	g.vertOrder.Store(&vs)
	return vs
}

// sortedEdges is sortedVertices for the edge set.
func (g *Graph) sortedEdges() []*Edge {
	if p := g.edgeOrder.Load(); p != nil {
		return *p
	}
	g.orderMu.Lock()
	defer g.orderMu.Unlock()
	if p := g.edgeOrder.Load(); p != nil {
		return *p
	}
	es := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	g.edgeOrder.Store(&es)
	return es
}

// Vertices calls fn for every vertex in ascending id order until fn
// returns false. The order is deterministic to keep query results stable,
// and cached between topology mutations so repeated scans are O(V).
func (g *Graph) Vertices(fn func(*Vertex) bool) {
	for _, v := range g.sortedVertices() {
		if !fn(v) {
			return
		}
	}
}

// Edges calls fn for every edge in ascending id order until fn returns false.
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.sortedEdges() {
		if !fn(e) {
			return
		}
	}
}

// Clone returns a deep copy of the topology sharing no mutable state with
// the receiver: fresh Vertex/Edge structs (mutators edit IDs and adjacency
// positions in place) and rebuilt adjacency lists preserving order. The
// iteration-order caches are not copied and rebuild lazily per instance.
// The engine never clones (its versions share an immutable main); tests
// and the benchmark do.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		name:     g.name,
		directed: g.directed,
		vertices: make(map[int64]*Vertex, len(g.vertices)),
		edges:    make(map[int64]*Edge, len(g.edges)),
	}
	for id, v := range g.vertices {
		ng.vertices[id] = &Vertex{ID: v.ID, Tuple: v.Tuple}
	}
	for id, e := range g.edges {
		ng.edges[id] = &Edge{
			ID:     e.ID,
			From:   ng.vertices[e.From.ID],
			To:     ng.vertices[e.To.ID],
			Tuple:  e.Tuple,
			outPos: e.outPos,
			inPos:  e.inPos,
		}
	}
	for id, v := range g.vertices {
		nv := ng.vertices[id]
		if len(v.Out) > 0 {
			nv.Out = make([]*Edge, len(v.Out))
			for i, e := range v.Out {
				nv.Out[i] = ng.edges[e.ID]
			}
		}
		if len(v.In) > 0 {
			nv.In = make([]*Edge, len(v.In))
			for i, e := range v.In {
				nv.In[i] = ng.edges[e.ID]
			}
		}
	}
	return ng
}

// ApproxBytes estimates the resident size of the topology (vertex/edge
// structs, adjacency slices, and hash maps), for the memory-overhead
// experiment. It deliberately excludes the relational attribute storage:
// the whole point of §3.2 is that the topology does not replicate it.
func (g *Graph) ApproxBytes() int64 {
	const (
		vertexSize   = 64 // struct + map entry overhead
		edgeSize     = 64
		slicePointer = 8
	)
	total := int64(len(g.vertices))*vertexSize + int64(len(g.edges))*edgeSize
	for _, v := range g.vertices {
		total += int64(cap(v.Out)+cap(v.In)) * slicePointer
	}
	return total
}
