package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// This file implements the SPScan physical operator's traversal kernels
// (§6.3): a lazy Dijkstra that emits settled shortest paths in cost order,
// and a best-first enumeration of the k shortest *simple* paths between two
// endpoints for TOP-k queries (Listing 6).
//
// Like traverse.go these are the pointer-topology reference kernels: the
// executor runs NewCSRShortest, and NewShortest / ShortestPath are what the
// oracle, the workload generators and tests compare it against.

// WeightFunc returns the traversal weight of edge e taken from `from` to
// `to` at path position pos. Returning ok=false excludes the edge (the
// pushed-down edge predicates ride along here). Weights must be
// non-negative; NewShortest reports an error through the iterator when a
// negative or NaN weight is produced.
type WeightFunc func(pos int, e *Edge, from, to *Vertex) (w float64, ok bool)

// weightError is SPScan's error for an edge weight that is negative or
// NaN. A NaN cost would break the heap's total order: entries below it
// stop sifting and vertexes settle at costs that are not their shortest.
func weightError(graph string, w float64, edge int64) error {
	if math.IsNaN(w) {
		return fmt.Errorf("graph %s: NaN weight on edge %d; SPScan requires non-negative weights", graph, edge)
	}
	return fmt.Errorf("graph %s: negative weight %g on edge %d; SPScan requires non-negative weights", graph, w, edge)
}

// spItem is a heap entry holding a partial path as a traversal-tree node
// (prefixes are shared; see pnode).
type spItem struct {
	node *pnode
	seq  int // insertion sequence for deterministic tie-breaking
}

type spHeap []spItem

func (h spHeap) Len() int { return len(h) }
func (h spHeap) Less(i, j int) bool {
	if h[i].node.cost != h[j].node.cost {
		return h[i].node.cost < h[j].node.cost
	}
	return h[i].seq < h[j].seq
}
func (h spHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spHeap) Push(x any)   { *h = append(*h, x.(spItem)) }
func (h *spHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = spItem{}
	*h = old[:n-1]
	return it
}

// spIter is the lazy shortest-path iterator.
type spIter struct {
	g      *Graph
	spec   Spec
	weight WeightFunc
	k      int // expansion cap per vertex; 1 = plain Dijkstra
	h      spHeap
	seq    int             // monotone tie-break sequence for heap determinism
	count  map[*Vertex]int // times a vertex has been settled
	// scratch is the reusable Path handed to Prune for candidate
	// expansions (see bfsIter.scratch).
	scratch Path
	err     error
	done    bool
	halt    stopper
}

// NewShortest creates a shortest-path traversal (the paper's SPScan).
//
// With k <= 1 it behaves as lazy Dijkstra: each pull returns the shortest
// path to the next settled vertex, in nondecreasing cost order, so the
// first path satisfying a parent's end-vertex predicate is the shortest
// such path. With k > 1 (TOP-k queries) it enumerates simple paths
// best-first, settling each vertex up to k times, which yields the k
// shortest simple paths to any fixed target.
//
// Spec.MinLen/MaxLen, filters and Prune apply as in DFS/BFS. Err reports a
// negative- or NaN-weight edge encountered during traversal.
func NewShortest(g *Graph, spec Spec, weight WeightFunc, k int) *spIter {
	if k < 1 {
		k = 1
	}
	it := &spIter{g: g, spec: spec, weight: weight, k: k,
		count: make(map[*Vertex]int), halt: stopper{done: spec.Done}}
	if !spec.admitStart() {
		it.done = true
		return it
	}
	heap.Init(&it.h)
	it.pushNode(&pnode{v: spec.Start})
	return it
}

func (it *spIter) pushNode(n *pnode) {
	it.seq++
	heap.Push(&it.h, spItem{node: n, seq: it.seq})
}

// Err returns the first traversal error (e.g. a negative edge weight).
func (it *spIter) Err() error { return it.err }

// Next returns the next path in nondecreasing cost order, or nil.
func (it *spIter) Next() *Path {
	for !it.done && it.err == nil && it.h.Len() > 0 {
		if it.halt.stop() {
			break
		}
		n := heap.Pop(&it.h).(spItem).node
		end := n.v
		if it.count[end] >= it.k {
			continue
		}
		it.count[end]++
		// Expand before deciding whether to emit, so a LIMIT above us can
		// stop pulling right after the emission without losing laziness.
		if it.spec.MaxLen <= 0 || n.depth < it.spec.MaxLen {
			pos := n.depth
			expand(it.g, end, func(e *Edge, to *Vertex) bool {
				if n.contains(to) {
					return true // simple paths only
				}
				if it.count[to] >= it.k {
					return true
				}
				if !okEdge(&it.spec, pos, e, end, to) {
					return true
				}
				if it.spec.FilterVertex != nil && !it.spec.FilterVertex(pos+1, to) {
					return true
				}
				w, ok := it.weight(pos, e, end, to)
				if !ok {
					return true
				}
				if !(w >= 0) {
					it.err = weightError(it.g.Name(), w, e.ID)
					return false
				}
				if it.spec.Prune != nil {
					// See bfsIter: prune on the scratch path so a rejected
					// expansion allocates no tree node.
					sp := n.materializeInto(&it.scratch, e, to)
					sp.Cost = n.cost + w
					if !it.spec.Prune(sp) {
						return true
					}
				}
				np := &pnode{parent: n, edge: e, v: to, depth: pos + 1, cost: n.cost + w}
				it.pushNode(np)
				return true
			})
		}
		if it.err != nil {
			return nil
		}
		if it.spec.lenOK(n.depth) && it.spec.targetOK(end) {
			return n.materialize(nil, nil)
		}
	}
	it.done = true
	return nil
}

// ShortestPath returns the minimum-cost path from start to target under
// weight, or nil if unreachable — a convenience wrapper used by tests,
// baselines, and the workload generators.
func ShortestPath(g *Graph, start, target *Vertex, weight WeightFunc) (*Path, error) {
	if start == nil || target == nil {
		return nil, nil
	}
	it := NewShortest(g, Spec{Start: start, Target: target, MinLen: 0}, weight, 1)
	p := it.Next()
	return p, it.Err()
}

// UnitWeight is a WeightFunc assigning every edge weight 1 (hop count).
func UnitWeight(int, *Edge, *Vertex, *Vertex) (float64, bool) { return 1, true }
