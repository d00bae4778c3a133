package graph

// This file implements the pointer-topology traversal kernels of the
// paper's physical path operators (§5.1.2, §6.3): depth-first (DFScan) and
// breadth-first (BFScan) simple-path enumeration. Both are *lazy*: they
// implement the iterator model so a parent operator that stops pulling
// (e.g. LIMIT 1 in a reachability query) stops the traversal.
//
// These are the reference kernels. The executor traverses CSR versions
// (csr_kernels.go) only; NewDFS, NewBFS and Reachable define the semantics
// those kernels must reproduce path for path, and are called by the
// differential oracle, the workload generators and tests — never from the
// execution path (CI greps for it).

// VisitPolicy controls how often a vertex may be visited during one
// traversal.
type VisitPolicy uint8

const (
	// VisitGlobal explores every vertex at most once per traversal, as the
	// paper's operators do ("all the physical operators explore a traversed
	// vertex only once to avoid loops", §5.1.2). The emitted paths form a
	// traversal tree; this is the right policy for reachability and
	// friends-of-friends style queries and keeps traversal linear.
	VisitGlobal VisitPolicy = iota
	// VisitPerPath forbids repeats only within a single path, enumerating
	// *all* simple paths in the length range. This is required for
	// pattern-matching queries such as triangle counting (Listing 4), where
	// distinct paths may share interior vertexes.
	VisitPerPath
)

// Spec parameterizes a traversal. The executor builds one from the
// predicates the optimizer pushed ahead of the PathScan (§6.2).
type Spec struct {
	// Start is the traversal origin (required).
	Start *Vertex
	// Target, when non-nil, restricts emission to paths ending at Target.
	// Exploration still proceeds through other vertexes.
	Target *Vertex
	// MinLen and MaxLen bound the emitted path length in edges, as inferred
	// by §6.1 path-length inference. MaxLen <= 0 means unbounded (the
	// simple-path property still bounds paths by the vertex count).
	MinLen, MaxLen int
	// Policy selects global-visited or per-path-visited semantics.
	Policy VisitPolicy
	// AllowCycle permits the final vertex of a path to equal its start
	// vertex, forming a cycle. Interior repeats remain forbidden. The
	// planner enables this when the query closes the path back onto its
	// start (e.g. the triangle pattern of Listing 4).
	AllowCycle bool
	// FilterEdge, when non-nil, is consulted before traversing edge e at
	// path position pos (0-based) from vertex `from` to vertex `to`.
	// Returning false prunes the expansion.
	FilterEdge func(pos int, e *Edge, from, to *Vertex) bool
	// FilterVertex, when non-nil, is consulted before admitting vertex v at
	// path position pos (0 is the start vertex). Returning false prunes.
	FilterVertex func(pos int, v *Vertex) bool
	// Prune, when non-nil, sees every partial path after an extension and
	// returns false to drop it and its extensions. Used for pushed-down
	// monotone aggregate bounds such as SUM(PS.Edges.Cost) < 10 (§6.2).
	// The Path is the kernel's reusable scratch: it is only valid for the
	// duration of the call and must not be retained.
	Prune func(p *Path) bool
	// Traversed, when non-nil, counts the edges a CSR kernel considers: it
	// is bumped at every point FilterEdge would be consulted, whether or
	// not one is installed, so a kernel run without a filter counts the
	// same edges as one run with an always-true filter.
	Traversed *int64
	// EdgePreds and VertexPreds, when non-nil, are FilterEdge's and
	// FilterVertex's filters compiled to typed predicates over columns of
	// the CSR version the kernel walks (edge columns as EdgeColumn lays
	// them out, vertex columns by dense index), one per filter in the
	// closure's order. A CSR kernel rejects an element when a predicate
	// covering its position fails on its column, admits it when all of
	// them hold, and asks the closure otherwise: when a predicate has no
	// column or its column does not hold the element's entry. They are
	// consulted only where the closure is installed.
	EdgePreds, VertexPreds []Pred
	// Weights, when non-nil, is an SPScan weight column over the CSR
	// version the kernel walks (EdgeColumn); an edge whose entry it does
	// not hold as a number is asked of the weight function. CSR kernels
	// only.
	Weights *Column
	// Done, when non-nil, makes the traversal cooperative: the kernels poll
	// the channel (amortized, every stopCheckMask+1 steps) and halt early
	// once it is closed. A halted kernel simply stops emitting — the layer
	// that closed the channel (the executor's cancellation signal) knows
	// the cause and reports the typed error.
	Done <-chan struct{}
}

// stopCheckMask amortizes Done polling in the traversal hot loops: the
// channel is polled every 64 steps, bounding both the per-step overhead
// and the number of hops a canceled traversal may still take.
const stopCheckMask = 63

// stopper is the kernels' shared cancellation poller. Each iterator owns
// one (single-goroutine, like all kernel state).
type stopper struct {
	done    <-chan struct{}
	ticks   uint
	stopped bool
}

// stop reports whether the traversal should halt, polling the underlying
// channel every stopCheckMask+1 calls. Once fired it stays fired.
func (s *stopper) stop() bool {
	if s.done == nil || s.stopped {
		return s.stopped
	}
	s.ticks++
	if s.ticks&stopCheckMask != 0 {
		return false
	}
	select {
	case <-s.done:
		s.stopped = true
	default:
	}
	return s.stopped
}

// PathIterator lazily produces traversal results.
type PathIterator interface {
	// Next returns the next path, or nil when the traversal is exhausted.
	Next() *Path
}

func (s *Spec) admitStart() bool {
	if s.Start == nil {
		return false
	}
	return s.FilterVertex == nil || s.FilterVertex(0, s.Start)
}

func (s *Spec) lenOK(l int) bool {
	return l >= s.MinLen && (s.MaxLen <= 0 || l <= s.MaxLen)
}

func (s *Spec) targetOK(v *Vertex) bool { return s.Target == nil || s.Target == v }

// expand enumerates the traversable (edge, other-endpoint) pairs of v.
// Directed graphs follow edge direction; undirected graphs traverse every
// incident edge outward.
func expand(g *Graph, v *Vertex, fn func(e *Edge, to *Vertex) bool) {
	for _, e := range v.Out {
		if !fn(e, e.To) {
			return
		}
	}
	if g.Directed() {
		return
	}
	for _, e := range v.In {
		if e.From == e.To {
			continue // self-loop already offered via Out
		}
		if !fn(e, e.From) {
			return
		}
	}
}

type dfsFrame struct {
	v     *Vertex
	edges []*Edge
	tos   []*Vertex
	next  int
}

// dfsIter enumerates paths depth-first with an explicit stack, emitting a
// path the moment its final vertex is reached (preorder).
//
// Membership testing differs by policy: VisitGlobal keeps a visited map
// (each vertex once per traversal); VisitPerPath only needs "is v on the
// current path", which a linear scan over the short working path answers
// faster than map maintenance — pattern queries bound paths to a few
// edges, making this the hot path of triangle counting.
type dfsIter struct {
	g    *Graph
	spec Spec
	// stack holds one frame per path vertex; frames are reused across
	// pushes (depth only shrinks logically) so steady-state expansion
	// allocates nothing.
	stack []dfsFrame
	depth int  // live frames
	path  Path // shared working path; emitted paths are clones
	// visited is used by VisitGlobal only.
	visited map[*Vertex]bool
	// pending holds at most one cycle-closure emission discovered while the
	// working path stayed unchanged.
	pending *Path
	done    bool
	halt    stopper
}

// NewDFS creates a depth-first traversal over g (the paper's DFScan).
func NewDFS(g *Graph, spec Spec) PathIterator {
	it := &dfsIter{g: g, spec: spec, halt: stopper{done: spec.Done}}
	if !spec.admitStart() {
		it.done = true
		return it
	}
	if spec.Policy == VisitGlobal {
		it.visited = map[*Vertex]bool{spec.Start: true}
	}
	it.path.Verts = append(it.path.Verts, spec.Start)
	it.pushFrame(spec.Start)
	if spec.MinLen <= 0 && spec.targetOK(spec.Start) {
		it.pending = it.path.Clone()
	}
	return it
}

// onPath reports whether v blocks expansion under the current policy.
func (it *dfsIter) onPath(v *Vertex) bool {
	if it.spec.Policy == VisitGlobal {
		return it.visited[v]
	}
	return it.path.contains(v)
}

func (it *dfsIter) pushFrame(v *Vertex) {
	if it.depth == len(it.stack) {
		it.stack = append(it.stack, dfsFrame{})
	}
	f := &it.stack[it.depth]
	it.depth++
	f.v = v
	f.edges = f.edges[:0]
	f.tos = f.tos[:0]
	f.next = 0
	if it.spec.MaxLen <= 0 || len(it.path.Edges) < it.spec.MaxLen {
		expand(it.g, v, func(e *Edge, to *Vertex) bool {
			f.edges = append(f.edges, e)
			f.tos = append(f.tos, to)
			return true
		})
	}
}

func (it *dfsIter) popFrame() {
	it.depth--
	it.path.Verts = it.path.Verts[:len(it.path.Verts)-1]
	if len(it.path.Edges) > 0 {
		it.path.Edges = it.path.Edges[:len(it.path.Edges)-1]
	}
}

func (it *dfsIter) Next() *Path {
	if it.pending != nil {
		p := it.pending
		it.pending = nil
		return p
	}
	if it.done {
		return nil
	}
	for it.depth > 0 {
		if it.halt.stop() {
			break
		}
		f := &it.stack[it.depth-1]
		if f.next >= len(f.edges) {
			it.popFrame()
			continue
		}
		e, to := f.edges[f.next], f.tos[f.next]
		f.next++
		pos := len(it.path.Edges) // edge position within the path
		depth := pos + 1          // resulting path length

		// At the final depth with a bound target, a non-target neighbor
		// can neither be emitted nor extended: skip before paying for
		// filter evaluation (the hot case of bounded pattern queries).
		if it.spec.MaxLen > 0 && depth == it.spec.MaxLen &&
			it.spec.Target != nil && to != it.spec.Target {
			continue
		}

		if it.onPath(to) {
			// Possible cycle closure back to the start vertex.
			if it.spec.AllowCycle && to == it.spec.Start && depth >= 2 &&
				it.spec.lenOK(depth) && it.spec.targetOK(to) &&
				okEdge(&it.spec, pos, e, f.v, to) {
				cp := it.path.Clone()
				cp.Edges = append(cp.Edges, e)
				cp.Verts = append(cp.Verts, to)
				if it.spec.Prune == nil || it.spec.Prune(cp) {
					return cp
				}
			}
			continue
		}
		if !okEdge(&it.spec, pos, e, f.v, to) {
			continue
		}
		if it.spec.FilterVertex != nil && !it.spec.FilterVertex(depth, to) {
			continue
		}
		it.path.Edges = append(it.path.Edges, e)
		it.path.Verts = append(it.path.Verts, to)
		if it.spec.Prune != nil && !it.spec.Prune(&it.path) {
			it.path.Edges = it.path.Edges[:len(it.path.Edges)-1]
			it.path.Verts = it.path.Verts[:len(it.path.Verts)-1]
			continue
		}
		if it.spec.Policy == VisitGlobal {
			it.visited[to] = true
		}
		it.pushFrame(to)
		if it.spec.lenOK(depth) && it.spec.targetOK(to) {
			return it.path.Clone()
		}
	}
	it.done = true
	return nil
}

func okEdge(s *Spec, pos int, e *Edge, from, to *Vertex) bool {
	return s.FilterEdge == nil || s.FilterEdge(pos, e, from, to)
}

// bfsIter enumerates paths breadth-first from a queue of traversal-tree
// nodes; partial paths share prefixes through parent pointers, so
// expanding a vertex is O(1) memory. Expansion is also incremental: a pull
// resumes in the middle of a node's adjacency list, so a parent that stops
// after LIMIT 1 never pays for the full fan-out of a hub vertex.
type bfsIter struct {
	g       *Graph
	spec    Spec
	queue   []*pnode
	visited map[*Vertex]bool

	// In-progress expansion of the node at the queue head.
	cur      *pnode
	curEdges []*Edge
	curTos   []*Vertex
	curIdx   int

	pendingRoot bool
	root        *pnode
	// scratch is the reusable Path handed to Prune for candidate
	// expansions; only emitted paths are materialized fresh.
	scratch Path
	done    bool
	halt    stopper
}

// NewBFS creates a breadth-first traversal over g (the paper's BFScan).
// Paths are emitted in nondecreasing length order.
func NewBFS(g *Graph, spec Spec) PathIterator {
	it := &bfsIter{g: g, spec: spec, visited: make(map[*Vertex]bool),
		halt: stopper{done: spec.Done}}
	if !spec.admitStart() {
		it.done = true
		return it
	}
	it.root = &pnode{v: spec.Start}
	it.visited[spec.Start] = true
	it.queue = append(it.queue, it.root)
	if spec.MinLen <= 0 && spec.targetOK(spec.Start) {
		it.pendingRoot = true
	}
	return it
}

func (it *bfsIter) Next() *Path {
	if it.pendingRoot {
		it.pendingRoot = false
		return it.root.materialize(nil, nil)
	}
	for !it.done {
		if it.halt.stop() {
			break
		}
		if it.cur == nil {
			if len(it.queue) == 0 {
				break
			}
			n := it.queue[0]
			it.queue[0] = nil
			it.queue = it.queue[1:]
			if it.spec.MaxLen > 0 && n.depth >= it.spec.MaxLen {
				continue
			}
			it.cur = n
			it.curEdges = it.curEdges[:0]
			it.curTos = it.curTos[:0]
			it.curIdx = 0
			expand(it.g, n.v, func(e *Edge, to *Vertex) bool {
				it.curEdges = append(it.curEdges, e)
				it.curTos = append(it.curTos, to)
				return true
			})
		}
		n := it.cur
		pos := n.depth
		for it.curIdx < len(it.curEdges) {
			if it.halt.stop() {
				it.done = true
				return nil
			}
			e, to := it.curEdges[it.curIdx], it.curTos[it.curIdx]
			it.curIdx++
			// Final-depth fast path: see the DFS counterpart.
			if it.spec.MaxLen > 0 && pos+1 == it.spec.MaxLen &&
				it.spec.Target != nil && to != it.spec.Target {
				continue
			}
			seen := it.visited[to]
			if it.spec.Policy == VisitPerPath {
				seen = n.contains(to)
			}
			if seen {
				if it.spec.AllowCycle && to == it.spec.Start && pos+1 >= 2 &&
					it.spec.lenOK(pos+1) && it.spec.targetOK(to) &&
					okEdge(&it.spec, pos, e, n.v, to) {
					if it.spec.Prune == nil ||
						it.spec.Prune(n.materializeInto(&it.scratch, e, to)) {
						return n.materialize(e, to)
					}
				}
				continue
			}
			if !okEdge(&it.spec, pos, e, n.v, to) {
				continue
			}
			if it.spec.FilterVertex != nil && !it.spec.FilterVertex(pos+1, to) {
				continue
			}
			// Prune consults the scratch path before the candidate's tree
			// node even exists, so a rejected expansion allocates nothing.
			if it.spec.Prune != nil && !it.spec.Prune(n.materializeInto(&it.scratch, e, to)) {
				continue
			}
			np := &pnode{parent: n, edge: e, v: to, depth: pos + 1}
			if it.spec.Policy == VisitGlobal {
				it.visited[to] = true
			}
			it.queue = append(it.queue, np)
			if it.spec.lenOK(np.depth) && it.spec.targetOK(to) {
				return np.materialize(nil, nil)
			}
		}
		it.cur = nil
	}
	it.done = true
	return nil
}

// Reachable reports whether target is reachable from start within maxLen
// edges (maxLen <= 0 for unbounded), a convenience used by tests and the
// workload generators.
func Reachable(g *Graph, start, target *Vertex, maxLen int) bool {
	if start == nil || target == nil {
		return false
	}
	if start == target {
		return true
	}
	it := NewBFS(g, Spec{Start: start, Target: target, MinLen: 1, MaxLen: maxLen})
	return it.Next() != nil
}
