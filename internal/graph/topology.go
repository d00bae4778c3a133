package graph

// This file implements the maintained topology of a graph view: one
// immutable CSR main plus an append-only delta of the changes since it was
// laid out (the main/delta split GRAPHITE runs its traversal operators on
// in a column store). The §3.3 maintenance hooks write the delta only:
//
//   - an edge insert appends an edge record and one arc per direction,
//     chained per endpoint in append order;
//   - an edge or vertex delete stamps a tombstone;
//   - a vertex insert appends a vertex record (its id resolvable through
//     the delta's id map);
//   - a rename or rewire is a tombstone plus a new record: the records a
//     version hands out are never mutated after they are published.
//
// Every change is one event; a version (CSR) is the main plus the first n
// events, so binding one is O(1) and never copies. Once the delta holds
// more events than a constant fraction of the main's size, Settle lays out
// the next main from the head (merge), preserving the canonical adjacency
// order csr.go defines; versions bound earlier keep the old main and
// delta.
//
// A Topology is not internally synchronized: one writer at a time (the
// engine's write lock). Versions are read concurrently with that writer:
// everything a version can reach is either immutable once written or an
// atomically written stamp or link whose later values it ignores.

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// mergeFloor is the smallest delta (in events) that triggers a merge; on
// top of it a merge waits for one event per mergeFraction main elements.
// A merge lays out all V+E elements, so waiting for (V+E)/8 events makes
// its cost O(1) per event while no traversal walks a longer delta.
const (
	mergeFloor    = 64
	mergeFraction = 8
)

// mergeAfter returns the delta length past which a main of mainSize
// vertexes + edges is replaced.
func mergeAfter(mainSize int) int { return max(mergeFloor, mainSize/mergeFraction) }

// delta is the writer-side bookkeeping of one main's change log; the log
// itself — arrays that only ever grow by append — lives in the head view
// (Topology.h), and a version keeps its own copy of their headers.
type delta struct {
	// outTail/inTail: per dense vertex, 1 + its last delta arc (writer only).
	outTail, inTail []int32

	// vIDs maps a vertex identifier to the dense indexes of every delta
	// vertex that carried it, oldest first; readers resolve identifiers
	// through it under mu. eIDs maps the identifiers of live delta edges
	// (writer only).
	mu   sync.RWMutex
	vIDs map[int64][]int32
	eIDs map[int64]int32
}

// vertexIndex resolves id among the delta vertexes c sees (see
// view.vertexIndex), newest first.
func (d *delta) vertexIndex(id int64, c *view) int32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	idxs := d.vIDs[id]
	for k := len(idxs) - 1; k >= 0; k-- {
		if i := idxs[k]; int(i) < c.denseV() && !c.deadV(i) {
			return i
		}
	}
	return -1
}

// Topology is the maintained topology of one graph view.
type Topology struct {
	// h is the head: the current main with every event applied. The writer
	// appends to its arrays; Version copies it.
	h    view
	last *CSR // the version Version handed out last

	builds, buildNS, bytes atomic.Int64
}

func newTopology(m *csrMain, buildNS int64) *Topology {
	t := &Topology{}
	t.install(m, buildNS)
	return t
}

// install makes m the main, with an empty delta.
func (t *Topology) install(m *csrMain, buildNS int64) {
	nv, ne := len(m.verts), len(m.edges)
	room := mergeAfter(nv+ne) + 1 // a delta rarely outgrows it before its merge
	perVertex := func() []int32 { return make([]int32, nv, nv+room) }
	d := &delta{outTail: perVertex(), inTail: perVertex(),
		vIDs: map[int64][]int32{}, eIDs: map[int64]int32{}}
	t.h = view{m: m, d: d, nv: nv, ne: ne}
	h := &t.h
	h.outHead, h.inHead = perVertex(), perVertex()
	h.vDead = make([]uint32, nv, nv+room)
	h.touched = make([]uint32, nv, nv+room)
	h.eDead = make([]uint32, ne, ne+room)
	for _, l := range []*arcList{&h.out, &h.in} {
		l.to, l.edge, l.next = make([]int32, 0, room), make([]int32, 0, room), make([]int32, 0, room)
	}
	t.builds.Add(1)
	t.buildNS.Add(buildNS)
	t.bytes.Store(m.bytes)
}

// Stats reports how many mains were laid out (creation plus merges), their
// total layout time, and the current main's approximate size. Safe to call
// concurrently with the writer.
func (t *Topology) Stats() (builds, buildNS, bytes int64) {
	return t.builds.Load(), t.buildNS.Load(), t.bytes.Load()
}

// Version binds the current state as an immutable version in O(1).
// Repeated calls without an intervening change return the same version.
// Writer side: callers hold the engine's write lock.
func (t *Topology) Version() *CSR {
	if c := t.last; c == nil || c.m != t.h.m || c.n != t.h.n {
		t.last = &CSR{view: t.h}
	}
	return t.last
}

// edgeIndex resolves a live edge identifier at the head, -1 when absent.
func (t *Topology) edgeIndex(id int64) int32 {
	if i, ok := t.h.d.eIDs[id]; ok {
		return i
	}
	if i := t.h.m.edgeIndex(id); i >= 0 && t.h.eDead[i] == 0 {
		return i
	}
	return -1
}

// event numbers the next change.
func (t *Topology) event() uint32 {
	t.h.n++
	return t.h.n
}

// touch stamps v's first change; only the first stamp is ever written.
func (t *Topology) touch(v int32, seq uint32) {
	if t.h.touched[v] == 0 {
		atomic.StoreUint32(&t.h.touched[v], seq)
	}
}

// link appends an arc v→to of edge ei to l, chained after v's last arc.
func link(l *arcList, head, tail []int32, v, to, ei int32) {
	l.to, l.edge, l.next = append(l.to, to), append(l.edge, ei), append(l.next, 0)
	a := int32(len(l.to))
	if t := tail[v]; t == 0 {
		atomic.StoreInt32(&head[v], a)
	} else {
		atomic.StoreInt32(&l.next[t-1], a)
	}
	tail[v] = a
}

func (t *Topology) addVertex(v *Vertex) {
	h, d := &t.h, t.h.d
	seq := t.event()
	i := int32(h.denseV())
	h.dverts = append(h.dverts, v)
	h.vDead, h.touched = append(h.vDead, 0), append(h.touched, seq)
	h.outHead, h.inHead = append(h.outHead, 0), append(h.inHead, 0)
	d.outTail, d.inTail = append(d.outTail, 0), append(d.inTail, 0)
	d.mu.Lock()
	d.vIDs[v.ID] = append(d.vIDs[v.ID], i)
	d.mu.Unlock()
	h.nv++
}

func (t *Topology) addEdge(e *Edge, from, to int32) {
	h, d := &t.h, t.h.d
	seq := t.event()
	ei := int32(len(h.m.edges) + len(h.dedges))
	h.dedges = append(h.dedges, e)
	h.deFrom, h.deTo = append(h.deFrom, from), append(h.deTo, to)
	h.eDead = append(h.eDead, 0)
	link(&h.out, h.outHead, d.outTail, from, to, ei)
	link(&h.in, h.inHead, d.inTail, to, from, ei)
	t.touch(from, seq)
	t.touch(to, seq)
	d.eIDs[e.ID] = ei
	h.ne++
}

func (t *Topology) killEdge(ei int32) {
	h := &t.h
	seq := t.event()
	atomic.StoreUint32(&h.eDead[ei], seq)
	from, to := h.endpoints(ei)
	t.touch(from, seq)
	t.touch(to, seq)
	delete(h.d.eIDs, h.edge(ei).ID)
	h.ne--
}

func (t *Topology) killVertex(vi int32) {
	seq := t.event()
	atomic.StoreUint32(&t.h.vDead[vi], seq)
	t.touch(vi, seq)
	t.h.nv--
}

// Settle lays out the next main if the delta has outgrown
// max(64, (V+E)/8) events. The engine calls it before binding each
// version it publishes, so no published version carries a longer delta
// however many changes one statement or bulk load made; the check is
// O(1). Writer side.
func (t *Topology) Settle() {
	if int(t.h.n) > mergeAfter(len(t.h.m.verts)+len(t.h.m.edges)) {
		t.Merge()
	}
}

// ReserveEdges makes room in the delta for about n more edges — a bulk
// load's row-count hint — so the load appends without regrowing its arrays
// or rehashing the id map. Versions bound earlier keep the arrays they
// copied, exactly as when an append regrows one. Writer side.
func (t *Topology) ReserveEdges(n int) {
	if n <= 0 {
		return
	}
	h, d := &t.h, t.h.d
	h.dedges = slices.Grow(h.dedges, n)
	h.deFrom, h.deTo, h.eDead = slices.Grow(h.deFrom, n), slices.Grow(h.deTo, n), slices.Grow(h.eDead, n)
	for _, l := range []*arcList{&h.out, &h.in} {
		l.to, l.edge, l.next = slices.Grow(l.to, n), slices.Grow(l.edge, n), slices.Grow(l.next, n)
	}
	ids := make(map[int64]int32, len(d.eIDs)+n)
	maps.Copy(ids, d.eIDs)
	d.eIDs = ids
}

// AddVertex inserts a vertex with the given identifier and tuple pointer.
func (t *Topology) AddVertex(id int64, tuple uint64) error {
	if t.h.vertexIndex(id) >= 0 {
		return fmt.Errorf("graph %s: duplicate vertex id %d", t.h.m.name, id)
	}
	t.addVertex(&Vertex{ID: id, Tuple: tuple})
	return nil
}

// AddEdge inserts an edge between live vertexes. Per §3.1 the endpoints of
// every edge are constrained to be members of the vertex set.
func (t *Topology) AddEdge(id, from, to int64, tuple uint64) error {
	if t.edgeIndex(id) >= 0 {
		return fmt.Errorf("graph %s: duplicate edge id %d", t.h.m.name, id)
	}
	h := &t.h
	fi, ti := h.vertexIndex(from), h.vertexIndex(to)
	if fi < 0 {
		return fmt.Errorf("graph %s: edge %d references missing vertex %d", t.h.m.name, id, from)
	}
	if ti < 0 {
		return fmt.Errorf("graph %s: edge %d references missing vertex %d", t.h.m.name, id, to)
	}
	t.addEdge(&Edge{ID: id, From: h.vert(fi), To: h.vert(ti), Tuple: tuple}, fi, ti)
	return nil
}

// RemoveEdge deletes the edge with the given id, reporting whether it existed.
func (t *Topology) RemoveEdge(id int64) bool {
	ei := t.edgeIndex(id)
	if ei < 0 {
		return false
	}
	t.killEdge(ei)
	return true
}

// incident returns v's live incident edges at the head, each once: the out
// arcs then the in arcs, in canonical order.
func (t *Topology) incident(vi int32) []int32 {
	h := &t.h
	var b arcBuf
	h.appendArcs(&b, vi, false, false)
	h.appendArcs(&b, vi, true, true) // a self-loop was already listed
	return b.edge
}

// IncidentEdges returns the live edges incident to the vertex with the
// given identifier (each once), or nil if the vertex is absent.
func (t *Topology) IncidentEdges(id int64) []*Edge {
	h := &t.h
	vi := h.vertexIndex(id)
	if vi < 0 {
		return nil
	}
	var out []*Edge
	for _, ei := range t.incident(vi) {
		out = append(out, h.edge(ei))
	}
	return out
}

// RemoveVertex deletes a vertex and every incident edge, returning the ids
// of the cascaded edges (sorted) and whether the vertex existed.
func (t *Topology) RemoveVertex(id int64) (cascaded []int64, ok bool) {
	h := &t.h
	vi := h.vertexIndex(id)
	if vi < 0 {
		return nil, false
	}
	eis := t.incident(vi)
	slices.SortFunc(eis, func(a, b int32) int { return cmp.Compare(h.edge(a).ID, h.edge(b).ID) })
	for _, ei := range eis {
		cascaded = append(cascaded, h.edge(ei).ID)
		t.killEdge(ei)
	}
	t.killVertex(vi)
	return cascaded, true
}

// RenameVertex changes a vertex identifier (§3.3.1's identifier
// consistency): the vertex and its incident edges are tombstoned and
// re-added under the new identifier, the edges in the order incident
// lists them.
func (t *Topology) RenameVertex(old, new int64) error {
	h := &t.h
	vi := h.vertexIndex(old)
	if vi < 0 {
		return fmt.Errorf("graph %s: rename of missing vertex %d", t.h.m.name, old)
	}
	if old == new {
		return nil
	}
	if h.vertexIndex(new) >= 0 {
		return fmt.Errorf("graph %s: rename to duplicate vertex id %d", t.h.m.name, new)
	}
	eis := t.incident(vi)
	for _, ei := range eis {
		t.killEdge(ei)
	}
	t.killVertex(vi)
	nv := &Vertex{ID: new, Tuple: h.vert(vi).Tuple}
	t.addVertex(nv)
	ni := int32(h.denseV() - 1)
	for _, ei := range eis {
		e := h.edge(ei)
		from, to := h.endpoints(ei)
		ne := &Edge{ID: e.ID, From: e.From, To: e.To, Tuple: e.Tuple}
		if from == vi {
			from, ne.From = ni, nv
		}
		if to == vi {
			to, ne.To = ni, nv
		}
		t.addEdge(ne, from, to)
	}
	return nil
}

// RenameEdge changes an edge identifier: a tombstone plus a new record
// with the same endpoints and tuple pointer.
func (t *Topology) RenameEdge(old, new int64) error {
	ei := t.edgeIndex(old)
	if ei < 0 {
		return fmt.Errorf("graph %s: rename of missing edge %d", t.h.m.name, old)
	}
	if old == new {
		return nil
	}
	if t.edgeIndex(new) >= 0 {
		return fmt.Errorf("graph %s: rename to duplicate edge id %d", t.h.m.name, new)
	}
	h := &t.h
	e := h.edge(ei)
	from, to := h.endpoints(ei)
	t.killEdge(ei)
	t.addEdge(&Edge{ID: new, From: e.From, To: e.To, Tuple: e.Tuple}, from, to)
	return nil
}

// endpoints returns edge ei's endpoint indexes as of the view.
func (c *view) endpoints(ei int32) (from, to int32) {
	if n := int32(len(c.m.edges)); ei >= n {
		return c.deFrom[ei-n], c.deTo[ei-n]
	}
	return c.m.eFrom[ei], c.m.eTo[ei]
}

// Merge lays out the head as the next main — live records only, adjacency
// in canonical order (old main order, then delta append order) — and
// starts an empty delta. Versions bound earlier keep the old main and
// delta. A no-op when the delta is empty.
func (t *Topology) Merge() {
	h, m := &t.h, t.h.m
	if h.n == 0 {
		return
	}
	start := time.Now()

	// Live vertexes and edges in ascending identifier order, reusing the
	// records; vmap/emap renumber old dense indexes (-1: dead).
	renumber := func(live []int32, n int) []int32 {
		r := make([]int32, n)
		for i := range r {
			r[i] = -1
		}
		for ni, old := range live {
			r[old] = int32(ni)
		}
		return r
	}
	liveV, liveE := h.liveVertices(nil), h.liveEdges(nil)
	vmap, emap := renumber(liveV, h.denseV()), renumber(liveE, len(m.edges)+len(h.dedges))
	verts := make([]*Vertex, len(liveV))
	byID := make(map[int64]int32, len(liveV))
	for i, old := range liveV {
		verts[i] = h.vert(old)
		byID[verts[i].ID] = int32(i)
	}
	edges := make([]*Edge, len(liveE))
	eFrom, eTo := make([]int32, len(liveE)), make([]int32, len(liveE))
	for i, old := range liveE {
		f, to := h.endpoints(old)
		edges[i], eFrom[i], eTo[i] = h.edge(old), vmap[f], vmap[to]
	}

	// Canonical order: every live main arc in main order, then every live
	// delta arc in append order; bucketing by owner keeps both.
	order := func(mainEdge []int32, l arcList) []int32 {
		o := make([]int32, 0, len(edges))
		for _, ei := range mainEdge {
			if emap[ei] >= 0 {
				o = append(o, emap[ei])
			}
		}
		for _, ei := range l.edge {
			if emap[ei] >= 0 {
				o = append(o, emap[ei])
			}
		}
		return o
	}
	next := newMain(m.name, m.directed, verts, byID, edges, eFrom, eTo,
		order(m.outEdge, h.out), order(m.inEdge, h.in))
	t.install(next, time.Since(start).Nanoseconds())
}

// Builder lays out a topology's first main from a bulk stream of
// vertexes and edges — the single pass over the relational sources that
// CREATE GRAPH VIEW runs (§3.2). Each vertex's adjacency keeps the order
// its edges were added in.
type Builder struct {
	name     string
	directed bool

	verts    []*Vertex
	byID     map[int64]int32 // into verts, in insertion order
	edges    []*Edge
	from, to []int32 // endpoints, indexes into verts
}

// NewBuilder starts a topology; nv and ne are capacity hints.
func NewBuilder(name string, directed bool, nv, ne int) *Builder {
	return &Builder{name: name, directed: directed,
		verts: make([]*Vertex, 0, nv), byID: make(map[int64]int32, nv),
		edges: make([]*Edge, 0, ne), from: make([]int32, 0, ne), to: make([]int32, 0, ne)}
}

// AddVertex adds a vertex; identifiers must be unique.
func (b *Builder) AddVertex(id int64, tuple uint64) error {
	if _, dup := b.byID[id]; dup {
		return fmt.Errorf("graph %s: duplicate vertex id %d", b.name, id)
	}
	b.byID[id] = int32(len(b.verts))
	b.verts = append(b.verts, &Vertex{ID: id, Tuple: tuple})
	return nil
}

// AddEdge adds an edge between vertexes added before it.
func (b *Builder) AddEdge(id, from, to int64, tuple uint64) error {
	fi, ok := b.byID[from]
	if !ok {
		return fmt.Errorf("graph %s: edge %d references missing vertex %d", b.name, id, from)
	}
	ti, ok := b.byID[to]
	if !ok {
		return fmt.Errorf("graph %s: edge %d references missing vertex %d", b.name, id, to)
	}
	b.edges = append(b.edges, &Edge{ID: id, From: b.verts[fi], To: b.verts[ti], Tuple: tuple})
	b.from, b.to = append(b.from, fi), append(b.to, ti)
	return nil
}

// Build lays out the main and returns the topology; it fails on duplicate
// edge identifiers.
func (b *Builder) Build() (*Topology, error) {
	start := time.Now()
	// Dense numbering: ascending identifiers. Sources usually arrive in
	// key order, which the sort detects.
	nv, ne := len(b.verts), len(b.edges)
	vperm := make([]int32, nv)
	for i := range vperm {
		vperm[i] = int32(i)
	}
	slices.SortFunc(vperm, func(x, y int32) int { return cmp.Compare(b.verts[x].ID, b.verts[y].ID) })
	verts := make([]*Vertex, nv)
	vrank := make([]int32, nv) // insertion index -> dense index
	for i, p := range vperm {
		verts[i] = b.verts[p]
		vrank[p] = int32(i)
		b.byID[verts[i].ID] = int32(i)
	}
	eperm := make([]int32, ne)
	for i := range eperm {
		eperm[i] = int32(i)
	}
	slices.SortFunc(eperm, func(x, y int32) int { return cmp.Compare(b.edges[x].ID, b.edges[y].ID) })
	edges := make([]*Edge, ne)
	eFrom, eTo := make([]int32, ne), make([]int32, ne)
	order := make([]int32, ne) // insertion order, as dense edge indexes
	for i, p := range eperm {
		if i > 0 && b.edges[p].ID == edges[i-1].ID {
			return nil, fmt.Errorf("graph %s: duplicate edge id %d", b.name, b.edges[p].ID)
		}
		edges[i] = b.edges[p]
		eFrom[i], eTo[i] = vrank[b.from[p]], vrank[b.to[p]]
		order[p] = int32(i)
	}
	m := newMain(b.name, b.directed, verts, b.byID, edges, eFrom, eTo, order, order)
	return newTopology(m, time.Since(start).Nanoseconds()), nil
}
