package graph

import (
	"strconv"
	"strings"
)

// Path is a traversal result: an ordered list of edges plus the vertex
// sequence in traversal order (§4: "GRFusion models a path as an ordered
// list of edges, where each edge has a start and end vertexes").
//
// For undirected graphs an edge may be traversed against its stored
// From→To orientation, so the authoritative start/end vertex of step i is
// Verts[i] / Verts[i+1], not Edges[i].From / Edges[i].To.
type Path struct {
	// Edges holds the path's edges in traversal order; len >= 0.
	Edges []*Edge
	// Verts holds the visited vertexes in traversal order;
	// len(Verts) == len(Edges)+1 always (a zero-length path is one vertex).
	Verts []*Vertex
	// Cost is the accumulated weight under SPScan's weight attribute, or 0.
	Cost float64
}

// Len returns the path length in edges (the PS.Length property).
func (p *Path) Len() int { return len(p.Edges) }

// Start returns the path's start vertex (PS.StartVertex).
func (p *Path) Start() *Vertex { return p.Verts[0] }

// End returns the path's end vertex (PS.EndVertex).
func (p *Path) End() *Vertex { return p.Verts[len(p.Verts)-1] }

// StepStart returns the start vertex of edge i in traversal order.
func (p *Path) StepStart(i int) *Vertex { return p.Verts[i] }

// StepEnd returns the end vertex of edge i in traversal order.
func (p *Path) StepEnd(i int) *Vertex { return p.Verts[i+1] }

// String renders the PS.PathString property: vertex and edge identifiers in
// traversal order, e.g. "1-[7]->2-[9]->5".
func (p *Path) String() string {
	var sb strings.Builder
	var num [20]byte // an int64 in decimal, on the stack
	sb.Grow(8 + 16*len(p.Edges))
	sb.Write(strconv.AppendInt(num[:0], p.Verts[0].ID, 10))
	for i, e := range p.Edges {
		sb.WriteString("-[")
		sb.Write(strconv.AppendInt(num[:0], e.ID, 10))
		sb.WriteString("]->")
		sb.Write(strconv.AppendInt(num[:0], p.Verts[i+1].ID, 10))
	}
	return sb.String()
}

// Clone returns a deep copy of the path's slices (the referenced vertexes
// and edges are shared with the topology, as always).
func (p *Path) Clone() *Path {
	return &Path{
		Edges: append([]*Edge(nil), p.Edges...),
		Verts: append([]*Vertex(nil), p.Verts...),
		Cost:  p.Cost,
	}
}

// contains reports whether v already appears on the path.
func (p *Path) contains(v *Vertex) bool {
	for _, x := range p.Verts {
		if x == v {
			return true
		}
	}
	return false
}

// pnode is a node of a traversal tree: partial paths during BFS and
// shortest-path search share prefixes through parent pointers instead of
// copying slices, so expanding a vertex costs O(1) memory. A full Path is
// materialized only when a result is emitted.
type pnode struct {
	parent *pnode
	edge   *Edge // nil at the root
	v      *Vertex
	depth  int
	cost   float64
}

func (n *pnode) contains(v *Vertex) bool {
	for x := n; x != nil; x = x.parent {
		if x.v == v {
			return true
		}
	}
	return false
}

// materialize builds a fresh concrete Path for emission, optionally
// appending one extra closing step.
func (n *pnode) materialize(extraEdge *Edge, extraVert *Vertex) *Path {
	return n.materializeInto(&Path{}, extraEdge, extraVert)
}

// materializeInto fills p with the node's path, reusing p's slice capacity
// so a per-iterator scratch path serves every Prune candidate without
// allocating (the dfsIter shared-working-path trick, ported to the
// traversal-tree kernels). The result aliases p and is only valid until
// the next call with the same p.
func (n *pnode) materializeInto(p *Path, extraEdge *Edge, extraVert *Vertex) *Path {
	length := n.depth
	if extraEdge != nil {
		length++
	}
	if cap(p.Edges) < length {
		p.Edges = make([]*Edge, length)
	} else {
		p.Edges = p.Edges[:length]
	}
	if cap(p.Verts) < length+1 {
		p.Verts = make([]*Vertex, length+1)
	} else {
		p.Verts = p.Verts[:length+1]
	}
	p.Cost = n.cost
	i := length
	if extraEdge != nil {
		p.Verts[i] = extraVert
		i--
		p.Edges[i] = extraEdge
	}
	for x := n; x != nil; x = x.parent {
		p.Verts[i] = x.v
		if x.edge != nil {
			p.Edges[i-1] = x.edge
		}
		i--
	}
	return p
}
