package graph

// This file implements the CSR (compressed sparse row) layout the engine
// traverses, and the versions readers bind to.
//
// A main (csrMain) is immutable: vertexes densely renumbered to int32
// indexes in ascending-identifier order, adjacency as offset + target +
// edge arrays per direction. It is laid out once — by BuildCSR from a
// pointer Graph, by a Builder from a view's relational sources, or by a
// Topology merge (topology.go). A Topology pairs one main with an
// append-only delta of the changes since; a version (CSR) is that main plus
// a prefix of the delta, so binding one is O(1) and readers of different
// versions share the same arrays without ever copying them.
//
// Canonical adjacency order: a vertex's out (in) arcs are its main arcs in
// main order, minus tombstoned edges, followed by its delta arcs in append
// order. The traversal view of an undirected graph is the out arcs followed
// by the in arcs minus self-loops — exactly expand()'s walk over a Graph's
// Out/In lists. A merge lays out the next main in this order and CSR.Graph
// materializes a version into Out/In lists in this order, so the pointer
// reference kernels over the materialization emit byte-identical path
// sequences to the CSR kernels over the version.
//
// The point is the paper's §5–§7 performance argument taken to its
// hardware conclusion: the kernels in csr_kernels.go walk flat int32 arrays
// with epoch-stamped visited slabs and pooled scratch, allocating nothing
// in steady state. A vertex the delta never touched is read straight from
// the main's windows; only touched vertexes pay for the tombstone checks
// and the delta walk.

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// csrMain is one immutable CSR layout of a topology.
type csrMain struct {
	name     string
	directed bool

	// verts/vids are parallel arrays over the dense vertex numbering
	// (ascending identifier order); byID inverts it.
	verts []*Vertex
	vids  []int64
	byID  map[int64]int32

	// edges holds the edge records in ascending identifier order, eids
	// their identifiers (the writer binary-searches it), eFrom and eTo
	// their endpoints' dense indexes.
	edges      []*Edge
	eids       []int64
	eFrom, eTo []int32

	// Out view: outAdj/outEdge[outOff[v]:outOff[v+1]] are the To-endpoint
	// and edge indexes of v's outgoing edges, in canonical order.
	outOff  []int32
	outAdj  []int32
	outEdge []int32

	// In view: the incoming counterpart (From endpoints).
	inOff  []int32
	inAdj  []int32
	inEdge []int32

	// Traversal view: what the kernels walk. Directed graphs alias the
	// out view; undirected graphs lay out out + in (self-loops once).
	adjOff  []int32
	adjTo   []int32
	adjEdge []int32

	bytes int64 // approximate resident size, fixed at layout

	// inPos maps each in-arc of a directed main to the position of its
	// edge among the traversal arcs; see inArcPos.
	inPosOnce sync.Once
	inPos     []int32

	// One scratch pool per kernel family, so a BFS/DFS scratch never
	// carries SPScan's arena, radix buckets and cost slab.
	walkPool sync.Pool // of *csrScratch, for DFScan and BFScan
	spPool   sync.Pool // of *csrScratch, for SPScan
	apool    sync.Pool // of *analyticsScratch (see analytics.go)
}

// newMain lays out a main over verts (ascending identifier order, byID its
// inverse) and edges (ascending identifier order, endpoints eFrom/eTo).
// outOrder and inOrder list every edge index once: a vertex's out (in)
// arcs are the subsequence of outOrder (inOrder) it owns, in that order.
func newMain(name string, directed bool, verts []*Vertex, byID map[int64]int32,
	edges []*Edge, eFrom, eTo, outOrder, inOrder []int32) *csrMain {

	nv := len(verts)
	m := &csrMain{name: name, directed: directed, verts: verts, byID: byID,
		edges: edges, eFrom: eFrom, eTo: eTo}
	m.vids = make([]int64, nv)
	for i, v := range verts {
		m.vids[i] = v.ID
	}
	m.eids = make([]int64, len(edges))
	for i, e := range edges {
		m.eids[i] = e.ID
	}
	m.outOff, m.outAdj, m.outEdge = bucketArcs(nv, eFrom, eTo, outOrder)
	m.inOff, m.inAdj, m.inEdge = bucketArcs(nv, eTo, eFrom, inOrder)

	if directed {
		m.adjOff, m.adjTo, m.adjEdge = m.outOff, m.outAdj, m.outEdge
	} else {
		m.adjOff = make([]int32, nv+1)
		for v := int32(0); v < int32(nv); v++ {
			deg := m.outOff[v+1] - m.outOff[v]
			for i := m.inOff[v]; i < m.inOff[v+1]; i++ {
				if m.inAdj[i] != v {
					deg++
				}
			}
			m.adjOff[v+1] = m.adjOff[v] + deg
		}
		m.adjTo = make([]int32, m.adjOff[nv])
		m.adjEdge = make([]int32, len(m.adjTo))
		for v := int32(0); v < int32(nv); v++ {
			o := m.adjOff[v]
			o += int32(copy(m.adjTo[o:], m.outAdj[m.outOff[v]:m.outOff[v+1]]))
			copy(m.adjEdge[m.adjOff[v]:], m.outEdge[m.outOff[v]:m.outOff[v+1]])
			for i := m.inOff[v]; i < m.inOff[v+1]; i++ {
				if m.inAdj[i] == v {
					continue // self-loop already offered via the out arcs
				}
				m.adjTo[o], m.adjEdge[o] = m.inAdj[i], m.inEdge[i]
				o++
			}
		}
	}

	m.bytes = int64(nv*(8+8+24) + len(edges)*(8+8+4+4) +
		4*(len(m.outOff)+len(m.outAdj)+len(m.outEdge)+len(m.inOff)+len(m.inAdj)+len(m.inEdge)))
	if !directed {
		m.bytes += int64(4 * (len(m.adjOff) + len(m.adjTo) + len(m.adjEdge)))
	}
	m.walkPool.New = func() any { return &csrScratch{} }
	m.spPool.New = m.walkPool.New
	m.apool.New = func() any { return &analyticsScratch{} }
	return m
}

// inArcPos returns, per in-arc of a directed main, the position of the
// same edge among the traversal arcs (adjEdge, one arc per edge), so the
// two-sided SPScan's backward search reads a delta-free weight column,
// which is laid out in traversal-arc order, without a second layout. It
// is built on first use, 4 B per edge.
func (m *csrMain) inArcPos() []int32 {
	m.inPosOnce.Do(func() {
		at := make([]int32, len(m.edges))
		for i, ei := range m.adjEdge {
			at[ei] = int32(i)
		}
		m.inPos = make([]int32, len(m.inEdge))
		for i, ei := range m.inEdge {
			m.inPos[i] = at[ei]
		}
	})
	return m.inPos
}

// bucketArcs lays out one adjacency view: every edge of order becomes an
// arc owned by key[e] and pointing at other[e], grouped by owner and
// stable in order.
func bucketArcs(nv int, key, other, order []int32) (off, adj, edge []int32) {
	off = make([]int32, nv+1)
	for _, e := range order {
		off[key[e]+1]++
	}
	for v := 0; v < nv; v++ {
		off[v+1] += off[v]
	}
	adj = make([]int32, len(order))
	edge = make([]int32, len(order))
	next := make([]int32, nv)
	copy(next, off[:nv])
	for _, e := range order {
		k := key[e]
		adj[next[k]], edge[next[k]] = other[e], e
		next[k]++
	}
	return off, adj, edge
}

// BuildCSR lays out g as a version with an empty delta, sharing g's vertex
// and edge records: the adjacency follows g's Out/In lists. The engine
// builds its mains from relational sources instead (Builder); this is for
// tests and for callers that hold a reference Graph.
func BuildCSR(g *Graph) *CSR {
	verts := g.sortedVertices() // immutable order cache, safe to alias
	byID := make(map[int64]int32, len(verts))
	for i, v := range verts {
		byID[v.ID] = int32(i)
	}
	edges := g.sortedEdges()
	ne := len(edges)
	idx := make(map[*Edge]int32, ne)
	eFrom, eTo := make([]int32, ne), make([]int32, ne)
	for i, e := range edges {
		idx[e] = int32(i)
		eFrom[i], eTo[i] = byID[e.From.ID], byID[e.To.ID]
	}
	outOrder, inOrder := make([]int32, 0, ne), make([]int32, 0, ne)
	for _, v := range verts {
		for _, e := range v.Out {
			outOrder = append(outOrder, idx[e])
		}
		for _, e := range v.In {
			inOrder = append(inOrder, idx[e])
		}
	}
	m := newMain(g.name, g.directed, verts, byID, edges, eFrom, eTo, outOrder, inOrder)
	return &CSR{view: view{m: m, nv: len(verts), ne: ne}}
}

// CSR is one version of a topology: an immutable main plus the prefix of
// its delta that existed when the version was bound. It never changes, so
// any number of goroutines may traverse it while the Topology moves on.
type CSR struct {
	view
	// g memoizes the materialization (see Graph).
	g atomic.Pointer[Graph]
	// memo holds one analytics result per iterative function (see Memo).
	memo [numMemoFns]atomic.Pointer[AnalyticsResult]
}

// view is a version's read state, kept apart from CSR so the writer can
// read its own head through a plain value (Topology.head).
type view struct {
	m *csrMain
	d *delta // nil for a bare main (BuildCSR)
	// deltaArrays holds the delta's arrays as they were at binding: the
	// lengths bound what this version sees of the records, and the stamps
	// (compared against n) what it sees of the tombstones.
	deltaArrays
	n      uint32 // delta events this version includes; 0 = the main alone
	nv, ne int    // live vertex and edge counts
}

// deltaArrays are a delta's growable arrays. Dense vertex indexes past the
// main's count name delta vertexes (dverts), likewise edges (dedges).
type deltaArrays struct {
	dverts       []*Vertex
	dedges       []*Edge
	deFrom, deTo []int32 // delta edges' endpoint indexes

	// Event stamps, one per dense vertex or edge, written atomically once:
	// vDead/eDead when the element was tombstoned, touched when a vertex
	// first gained a delta arc or lost an edge (delta vertexes: at birth).
	// 0 means never; a stamp counts for a version iff it is <= its n.
	vDead, touched []uint32
	eDead          []uint32

	// outHead/inHead hold, per dense vertex, 1 + the index of its first
	// delta arc in out/in (0: none); arcs chain through next, in append
	// order. Heads and next links are written atomically.
	outHead, inHead []int32
	out, in         arcList
}

// arcList is the delta's append-only arc log of one direction.
type arcList struct {
	to, edge, next []int32
}

// NumVertices returns the version's live vertex count.
func (c *view) NumVertices() int { return c.nv }

// NumEdges returns the version's live edge count.
func (c *view) NumEdges() int { return c.ne }

// DeltaLen returns how many delta events the version includes on top of
// its main (0: the main alone).
func (c *view) DeltaLen() int { return int(c.n) }

// AvgFanOut returns the version's average fan-out, the §6.3 statistic the
// optimizer reads to choose between BFS and DFS physical operators. It is
// O(1) from the version's exact vertex and edge counts.
func (c *view) AvgFanOut() float64 {
	if c.nv == 0 {
		return 0
	}
	if c.m.directed {
		return float64(c.ne) / float64(c.nv)
	}
	return 2 * float64(c.ne) / float64(c.nv)
}

// ApproxBytes estimates the version's resident size: the main plus the
// delta it sees, for SHOW METRICS and the memory experiment.
func (c *view) ApproxBytes() int64 {
	return c.m.bytes + int64(len(c.dverts)*40+len(c.dedges)*56+
		4*(len(c.vDead)+len(c.touched)+len(c.eDead)+len(c.outHead)+len(c.inHead))+
		12*(len(c.out.to)+len(c.in.to)))
}

// denseV is the size of the version's dense vertex index space (live and
// tombstoned vertexes alike).
func (c *view) denseV() int { return len(c.m.verts) + len(c.dverts) }

func (c *view) vert(i int32) *Vertex {
	if n := int32(len(c.m.verts)); i >= n {
		return c.dverts[i-n]
	}
	return c.m.verts[i]
}

func (c *view) edge(i int32) *Edge {
	if n := int32(len(c.m.edges)); i >= n {
		return c.dedges[i-n]
	}
	return c.m.edges[i]
}

func (c *view) vertexID(i int32) int64 { return c.vert(i).ID }

// stamped reports whether an event stamp counts for this version.
func (c *view) stamped(s *uint32) bool {
	t := atomic.LoadUint32(s)
	return t != 0 && t <= c.n
}

// clean reports whether vertex v's adjacency at this version is exactly
// its main windows: no delta arc, no tombstoned edge. Every kernel's fast
// path hangs on it.
func (c *view) clean(v int32) bool { return c.n == 0 || !c.stamped(&c.touched[v]) }

func (c *view) deadV(v int32) bool { return c.n != 0 && c.stamped(&c.vDead[v]) }

func (c *view) deadE(e int32) bool { return c.n != 0 && c.stamped(&c.eDead[e]) }

// vertexIndex resolves a vertex identifier to the dense index of the live
// vertex carrying it at this version, -1 when there is none.
func (c *view) vertexIndex(id int64) int32 {
	if i, ok := c.m.byID[id]; ok && !c.deadV(i) {
		return i
	}
	if c.n == 0 {
		return -1
	}
	return c.d.vertexIndex(id, c)
}

// indexOfVertex resolves a vertex record to its dense index, -1 when the
// record is not live in this version (pointer identity is required: an
// equal-ID vertex of another topology, or a record a rename retired, must
// not match, mirroring the pointer kernels' identity semantics).
func (c *view) indexOfVertex(v *Vertex) int32 {
	if v == nil {
		return -1
	}
	if i := c.vertexIndex(v.ID); i >= 0 && c.vert(i) == v {
		return i
	}
	return -1
}

// noTarget / badTarget are targetIndex sentinels: no target bound vs a
// bound target that cannot match any vertex of the version.
const (
	noTarget  int32 = -1
	badTarget int32 = -2
)

func (c *view) targetIndex(v *Vertex) int32 {
	if v == nil {
		return noTarget
	}
	if i := c.indexOfVertex(v); i >= 0 {
		return i
	}
	return badTarget
}

// Vertex returns the live vertex with the given identifier, or nil.
func (c *view) Vertex(id int64) *Vertex {
	if i := c.vertexIndex(id); i >= 0 {
		return c.vert(i)
	}
	return nil
}

// edgeIndex binary-searches the main's edges (ascending identifiers).
func (m *csrMain) edgeIndex(id int64) int32 {
	i, ok := slices.BinarySearch(m.eids, id)
	if !ok {
		return -1
	}
	return int32(i)
}

// liveOrder appends to out the dense indexes of the records live at this
// version in ascending identifier order: the main's (mainIDs, already in
// that order, numbered from 0) merged with the live delta records
// (numbered after them), sorted by identifier. Each delta record's
// identifier is read once, so the sort never chases record pointers.
func liveOrder[T any](out []int32, mainIDs []int64, delta []T, id func(T) int64, dead func(int32) bool) []int32 {
	type rec struct {
		id int64
		i  int32
	}
	base := int32(len(mainIDs))
	tail := make([]rec, 0, len(delta))
	for j, r := range delta {
		if i := base + int32(j); !dead(i) {
			tail = append(tail, rec{id(r), i})
		}
	}
	byID := func(a, b rec) int { return cmp.Compare(a.id, b.id) }
	if !slices.IsSortedFunc(tail, byID) { // a bulk load's keys usually ascend
		slices.SortFunc(tail, byID)
	}
	j := 0
	for i, id := range mainIDs {
		if dead(int32(i)) {
			continue
		}
		for ; j < len(tail) && tail[j].id < id; j++ {
			out = append(out, tail[j].i)
		}
		out = append(out, int32(i))
	}
	for _, r := range tail[j:] {
		out = append(out, r.i)
	}
	return out
}

// liveVertices appends the dense indexes of the live vertexes in ascending
// identifier order.
func (c *view) liveVertices(out []int32) []int32 {
	return liveOrder(out, c.m.vids, c.dverts, func(v *Vertex) int64 { return v.ID }, c.deadV)
}

// liveEdges is liveVertices for edges.
func (c *view) liveEdges(out []int32) []int32 {
	return liveOrder(out, c.m.eids, c.dedges, func(e *Edge) int64 { return e.ID }, c.deadE)
}

// Vertices calls fn for every live vertex in ascending identifier order
// until fn returns false.
func (c *view) Vertices(fn func(*Vertex) bool) {
	if c.n == 0 {
		for _, v := range c.m.verts {
			if !fn(v) {
				return
			}
		}
		return
	}
	for _, i := range c.liveVertices(nil) {
		if !fn(c.vert(i)) {
			return
		}
	}
}

// Edges calls fn for every live edge in ascending identifier order until
// fn returns false.
func (c *view) Edges(fn func(*Edge) bool) {
	if c.n == 0 {
		for _, e := range c.m.edges {
			if !fn(e) {
				return
			}
		}
		return
	}
	for _, i := range c.liveEdges(nil) {
		if !fn(c.edge(i)) {
			return
		}
	}
}

// walkArcs calls fn(target, edge) for v's live arcs of one direction in
// canonical order: the main window minus tombstoned edges, then the delta
// chain. skipSelf drops self-loops (the in half of an undirected
// traversal view).
func (c *view) walkArcs(v int32, in, skipSelf bool, fn func(to, e int32)) {
	m := c.m
	off, adj, eg, head, arcs := m.outOff, m.outAdj, m.outEdge, c.outHead, &c.out
	if in {
		off, adj, eg, head, arcs = m.inOff, m.inAdj, m.inEdge, c.inHead, &c.in
	}
	if int(v) < len(m.verts) {
		for i := off[v]; i < off[v+1]; i++ {
			if (skipSelf && adj[i] == v) || c.deadE(eg[i]) {
				continue
			}
			fn(adj[i], eg[i])
		}
	}
	if c.n == 0 {
		return
	}
	// Arcs are appended in event order, so the first one past this
	// version's arc count ends its part of the chain.
	for a := atomic.LoadInt32(&head[v]) - 1; a >= 0 && int(a) < len(arcs.to); a = atomic.LoadInt32(&arcs.next[a]) - 1 {
		if (skipSelf && arcs.to[a] == v) || c.deadE(arcs.edge[a]) {
			continue
		}
		fn(arcs.to[a], arcs.edge[a])
	}
}

// appendArcs appends walkArcs' arcs to b.
func (c *view) appendArcs(b *arcBuf, v int32, in, skipSelf bool) {
	c.walkArcs(v, in, skipSelf, func(to, e int32) {
		b.to, b.edge = append(b.to, to), append(b.edge, e)
	})
}

// arcBuf is scratch for the arcs of touched vertexes.
type arcBuf struct{ to, edge []int32 }

func (b *arcBuf) reset() { b.to, b.edge = b.to[:0], b.edge[:0] }

// adjacency returns v's traversal-view arcs. A clean vertex returns
// windows of the main's arrays; a touched one appends its live arcs to b
// and returns the appended part, which stays valid until b is truncated
// below it (the DFS kernel stacks frames in one buffer this way).
func (c *view) adjacency(v int32, b *arcBuf) (to, edge []int32) {
	if m := c.m; c.clean(v) {
		lo, hi := m.adjOff[v], m.adjOff[v+1]
		return m.adjTo[lo:hi], m.adjEdge[lo:hi]
	}
	lo := len(b.to)
	c.appendArcs(b, v, false, false)
	if !c.m.directed {
		c.appendArcs(b, v, true, true)
	}
	return b.to[lo:], b.edge[lo:]
}

// sideArcs returns v's arcs for one side of a two-sided search: the
// traversal arcs forward, and backward too on an undirected view; the
// in-arcs backward on a directed view — main windows for a clean vertex,
// the live arcs appended to b for a touched one, as adjacency does.
func (c *view) sideArcs(back bool, v int32, b *arcBuf) (to, edge []int32) {
	m := c.m
	if !back || !m.directed {
		return c.adjacency(v, b)
	}
	if !c.clean(v) {
		lo := len(b.to)
		c.appendArcs(b, v, true, false)
		return b.to[lo:], b.edge[lo:]
	}
	lo, hi := m.inOff[v], m.inOff[v+1]
	return m.inAdj[lo:hi], m.inEdge[lo:hi]
}

// bothArcs returns the targets of all of v's out arcs and in arcs (the
// weak-connectivity neighborhood the component and label kernels use):
// two main windows for a clean vertex, one appended run of b otherwise.
func (c *view) bothArcs(v int32, b *arcBuf) (first, second []int32) {
	if !c.clean(v) {
		b.reset()
		c.appendArcs(b, v, false, false)
		c.appendArcs(b, v, true, false)
		return b.to, nil
	}
	m := c.m
	return m.outAdj[m.outOff[v]:m.outOff[v+1]], m.inAdj[m.inOff[v]:m.inOff[v+1]]
}

// degree counts v's live arcs in one direction.
func (c *view) degree(v int32, in bool) int32 {
	if !c.clean(v) {
		return c.countArcs(v, in, false)
	}
	off := c.m.outOff
	if in {
		off = c.m.inOff
	}
	return off[v+1] - off[v]
}

// countArcs counts what walkArcs would visit.
func (c *view) countArcs(v int32, in, skipSelf bool) int32 {
	var n int32
	c.walkArcs(v, in, skipSelf, func(_, _ int32) { n++ })
	return n
}

// FanOut returns the number of edges leaving v under the graph's
// directedness: the out-degree for directed graphs, the full degree for
// undirected ones (every incident edge can be traversed outward). A vertex
// not live in this version has none.
func (c *view) FanOut(v *Vertex) int {
	i := c.indexOfVertex(v)
	if i < 0 {
		return 0
	}
	if c.m.directed {
		return int(c.degree(i, false))
	}
	return int(c.degree(i, false) + c.degree(i, true))
}

// FanIn returns the number of edges entering v (the full degree for
// undirected graphs).
func (c *view) FanIn(v *Vertex) int {
	i := c.indexOfVertex(v)
	if i < 0 {
		return 0
	}
	if c.m.directed {
		return int(c.degree(i, true))
	}
	return int(c.degree(i, false) + c.degree(i, true))
}

// Graph materializes the version as a pointer Graph with fresh records and
// canonical Out/In order, the input of the pointer reference kernels. It
// is computed once per version; callers must not mutate the result.
func (c *CSR) Graph() *Graph {
	if g := c.g.Load(); g != nil {
		return g
	}
	g := New(c.m.name, c.m.directed)
	g.vertices = make(map[int64]*Vertex, c.nv)
	g.edges = make(map[int64]*Edge, c.ne)
	c.Vertices(func(v *Vertex) bool {
		g.vertices[v.ID] = &Vertex{ID: v.ID, Tuple: v.Tuple}
		return true
	})
	c.Edges(func(e *Edge) bool {
		g.edges[e.ID] = &Edge{ID: e.ID, From: g.vertices[e.From.ID], To: g.vertices[e.To.ID], Tuple: e.Tuple}
		return true
	})
	for i := int32(0); i < int32(c.denseV()); i++ {
		if c.deadV(i) {
			continue
		}
		v := g.vertices[c.vertexID(i)]
		c.walkArcs(i, false, false, func(_, ei int32) {
			e := g.edges[c.edge(ei).ID]
			e.outPos = int32(len(v.Out))
			v.Out = append(v.Out, e)
		})
		c.walkArcs(i, true, false, func(_, ei int32) {
			e := g.edges[c.edge(ei).ID]
			e.inPos = int32(len(v.In))
			v.In = append(v.In, e)
		})
	}
	if !c.g.CompareAndSwap(nil, g) {
		return c.g.Load()
	}
	return g
}

// csrNode is one node of a BFS traversal tree held in the scratch arena;
// parents are arena indexes (-1 at the root) so partial paths share
// prefixes without a single heap allocation.
type csrNode struct {
	parent int32
	edge   int32 // adjacency edge index, -1 at the root
	v      int32
	depth  int32
}

// csrSPNode is the shortest-path counterpart, carrying the settled cost.
type csrSPNode struct {
	parent int32
	edge   int32
	v      int32
	depth  int32
	cost   float64
}

// spQueueItem is one entry of the SPScan priority queue: an arena node,
// its vertex (so a stale entry is skipped before the arena is read), and
// spKey of its cost. The arena index is assigned in push order, so the
// queue's (cost, node) order is the pointer kernel's (cost, insertion
// sequence) order, and pop order is implementation-independent.
type spQueueItem struct {
	key  uint64
	node int32
	v    int32
}

// spKey maps a cost to a key whose unsigned order is the cost order: the
// IEEE-754 bits of a non-negative double grow with its value, subnormals
// and +Inf included. SPScan costs are never negative or NaN; clearing the
// sign bit keys -0 as 0.
func spKey(cost float64) uint64 { return math.Float64bits(cost) &^ (1 << 63) }

// radixQueue is SPScan's priority queue, a monotone radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, 1990). It pops entries in (key, node) order
// provided no push is below the last pop, which SPScan guarantees: it
// pushes a popped cost plus a weight it has checked is >= 0.
//
// An entry lives in bucket bits.Len64(key ^ last): b[0] holds keys equal
// to last and is read in FIFO order through head; b[i] holds keys that
// agree with last above bit i-1 and exceed it there. Keys have no sign
// bit, so i <= 63. When b[0] runs dry, the lowest non-empty bucket is
// redistributed around its minimum key, which becomes last; every entry
// lands in a lower bucket.
//
// Equal keys leave in node order without a sort, because every bucket
// stays node-ascending: a push appends an arena index above all queued
// ones, and a redistribution moves a node-ascending block, in order, into
// buckets that are all empty (b[0] is drained and the block's bucket was
// the lowest non-empty one).
type radixQueue struct {
	last     uint64
	head     int
	occupied uint64 // for i >= 1, bit i set ⇔ b[i] is non-empty; bit 0 is ignored
	b        [64][]spQueueItem
}

func (q *radixQueue) push(it spQueueItem) {
	i := bits.Len64(it.key ^ q.last)
	q.b[i] = append(q.b[i], it)
	q.occupied |= 1 << i
}

// peek returns the least key without removing its entry; ok is false
// when the queue is empty. It may redistribute a bucket, which moves last
// up to that key, so the next push must not be below it: SPScan pushes
// into a queue only after popping from it.
func (q *radixQueue) peek() (key uint64, ok bool) {
	if q.head == len(q.b[0]) {
		q.b[0], q.head = q.b[0][:0], 0
		rest := q.occupied &^ 1
		if rest == 0 {
			return 0, false
		}
		i := bits.TrailingZeros64(rest)
		blk := q.b[i]
		q.last = blk[0].key
		for _, e := range blk[1:] {
			q.last = min(q.last, e.key)
		}
		q.b[i], q.occupied = blk[:0], rest&^(1<<i)
		for _, e := range blk {
			q.push(e) // lands below i, so blk is not overwritten
		}
	}
	return q.last, true
}

// pop removes the least entry; ok is false when the queue is empty.
func (q *radixQueue) pop() (it spQueueItem, ok bool) {
	if _, ok = q.peek(); !ok {
		return it, false
	}
	it = q.b[0][q.head]
	q.head++
	return it, true
}

// reset empties the queue, keeping every bucket's capacity.
func (q *radixQueue) reset() {
	q.b[0], q.head, q.last = q.b[0][:0], 0, 0
	for o := q.occupied &^ 1; o != 0; o &= o - 1 {
		i := bits.TrailingZeros64(o)
		q.b[i] = q.b[i][:0]
	}
	q.occupied = 0
}

// csrScratch is the reusable per-traversal state: epoch-stamped visited
// and settled slabs (one array store instead of a map insert per vertex),
// the frontier/stack/queue buffers, the traversal-tree arenas, and the
// iterator structs themselves. One scratch serves exactly one traversal
// at a time; Release returns it to the main's pool, so steady-state
// traversal allocates nothing.
type csrScratch struct {
	epoch   uint32
	visited []uint32 // visited[v] == epoch ⇒ v discovered this traversal
	// best[v], valid iff visited[v] == epoch, is the cheapest cost queued
	// for v so far by a k=1 SPScan (which has no other use for visited);
	// only such a scan sizes it.
	best []float64

	// SPScan settle accounting: settledC[v] is valid iff settledE[v] ==
	// epoch. Only SPScan sizes them, like best.
	settledE []uint32
	settledC []int32

	dstack []csrFrame // DFS stack frames
	queue  []int32    // BFS FIFO of arena indexes
	nodes  []csrNode  // BFS traversal-tree arena
	sp     []csrSPNode
	spq    radixQueue

	// sides are the two-sided SPScan's forward and backward searches
	// (csr_pair.go); only that kernel sizes them.
	sides [2]spSide

	// rsides are the two-sided BFScan's forward and backward searches
	// (csr_reach.go), and reachPar/reachEdge the parent vertex and edge of
	// each vertex one of them has seen; only that kernel sizes them.
	rsides              [2]reachSide
	reachPar, reachEdge []int32

	// pathV/pathE are the index-form working path (DFS) or chain
	// materialization buffer (BFS/SP): pathV holds len+1 vertex indexes,
	// pathE len edge indexes.
	pathV []int32
	pathE []int32

	// scratch is the pointer-form Path handed to Prune callbacks,
	// refilled in place per candidate.
	scratch Path

	// arcs holds the live arcs of touched vertexes: a stack of per-frame
	// runs for DFS, the current expansion for BFS and SPScan.
	arcs arcBuf

	// The kernels live in the scratch so starting a traversal performs no
	// heap allocation. An iterator becomes invalid the moment its Release
	// runs; the pool may hand its memory to the next traversal.
	dfs   csrDFSIter
	bfs   csrBFSIter
	spi   csrSPIter
	pair  csrPairIter
	reach csrReachIter
}

// getScratch takes a scratch from pool, one of the main's (shared by every
// version of that main), sizes its slabs to this version's dense vertex
// space, and opens a new visited epoch.
func (c *CSR) getScratch(pool *sync.Pool) *csrScratch {
	s := pool.Get().(*csrScratch)
	if n := c.denseV(); len(s.visited) < n {
		// A fresh zeroed slab: no stamp in it can equal any epoch.
		s.visited = make([]uint32, n)
	}
	s.arcs.reset()
	s.epoch++
	if s.epoch == 0 { // wrapped: old stamps could alias the new epoch
		for i := range s.visited {
			s.visited[i] = 0
		}
		for i := range s.settledE {
			s.settledE[i] = 0
		}
		for d := range s.sides {
			clear(s.sides[d].seen)
			clear(s.rsides[d].seen)
		}
		s.epoch = 1
	}
	return s
}

// settled returns how many times vertex vi has been settled this
// traversal (SPScan's per-vertex k cap).
func (s *csrScratch) settled(vi int32) int32 {
	if s.settledE[vi] != s.epoch {
		return 0
	}
	return s.settledC[vi]
}

func (s *csrScratch) settleInc(vi int32) {
	if s.settledE[vi] != s.epoch {
		s.settledE[vi] = s.epoch
		s.settledC[vi] = 0
	}
	s.settledC[vi]++
}

// sizeI32 resizes a scratch index slice to n, reusing capacity.
func sizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// chainIdx fills s.pathV/s.pathE with the BFS arena chain ending at node
// ni, plus an optional closing step.
func (s *csrScratch) chainIdx(ni int32, closeEdge, closeVert int32) {
	length := int(s.nodes[ni].depth)
	if closeEdge >= 0 {
		length++
	}
	s.pathV = sizeI32(s.pathV, length+1)
	s.pathE = sizeI32(s.pathE, length)
	i := length
	if closeEdge >= 0 {
		s.pathV[i] = closeVert
		i--
		s.pathE[i] = closeEdge
	}
	for x := ni; x >= 0; x = s.nodes[x].parent {
		s.pathV[i] = s.nodes[x].v
		if s.nodes[x].edge >= 0 {
			s.pathE[i-1] = s.nodes[x].edge
		}
		i--
	}
}

// spChainIdx is chainIdx over the shortest-path arena.
func (s *csrScratch) spChainIdx(ni int32, closeEdge, closeVert int32) {
	length := int(s.sp[ni].depth)
	if closeEdge >= 0 {
		length++
	}
	s.pathV = sizeI32(s.pathV, length+1)
	s.pathE = sizeI32(s.pathE, length)
	i := length
	if closeEdge >= 0 {
		s.pathV[i] = closeVert
		i--
		s.pathE[i] = closeEdge
	}
	for x := ni; x >= 0; x = s.sp[x].parent {
		s.pathV[i] = s.sp[x].v
		if s.sp[x].edge >= 0 {
			s.pathE[i-1] = s.sp[x].edge
		}
		i--
	}
}

func (s *csrScratch) chainContains(ni, vi int32) bool {
	for x := ni; x >= 0; x = s.nodes[x].parent {
		if s.nodes[x].v == vi {
			return true
		}
	}
	return false
}

func (s *csrScratch) spChainContains(ni, vi int32) bool {
	for x := ni; x >= 0; x = s.sp[x].parent {
		if s.sp[x].v == vi {
			return true
		}
	}
	return false
}

// buildPath resolves an index-form path into a fresh pointer-form Path —
// the deferred materialization that runs only for emitted rows.
func (c *CSR) buildPath(vidx, eidx []int32, cost float64) *Path {
	p := &Path{
		Edges: make([]*Edge, len(eidx)),
		Verts: make([]*Vertex, len(vidx)),
		Cost:  cost,
	}
	for i, vi := range vidx {
		p.Verts[i] = c.vert(vi)
	}
	for i, ei := range eidx {
		p.Edges[i] = c.edge(ei)
	}
	return p
}

// fillPath is buildPath into a reusable scratch Path (for Prune
// candidates); the result is valid only until the next fill.
func (c *CSR) fillPath(p *Path, vidx, eidx []int32, cost float64) *Path {
	if cap(p.Edges) < len(eidx) {
		p.Edges = make([]*Edge, len(eidx))
	} else {
		p.Edges = p.Edges[:len(eidx)]
	}
	if cap(p.Verts) < len(vidx) {
		p.Verts = make([]*Vertex, len(vidx))
	} else {
		p.Verts = p.Verts[:len(vidx)]
	}
	p.Cost = cost
	for i, vi := range vidx {
		p.Verts[i] = c.vert(vi)
	}
	for i, ei := range eidx {
		p.Edges[i] = c.edge(ei)
	}
	return p
}
