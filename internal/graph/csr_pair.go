package graph

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the two-sided SPScan kernel: a k=1 shortest path
// between a bound start and a bound target, searched from both ends at
// once (Pohl's bidirectional Dijkstra, with the stopping rule of Goldberg
// and Harrelson, "Computing the shortest path: A* search meets graph
// theory", SODA 2005).
//
// A forward search settles vertexes outward from the start over the
// traversal arcs; a backward search settles them outward from the target
// over the in-arcs (the traversal arcs again on an undirected view). Each
// relaxation that reaches a vertex the other side has queued offers a
// meeting: a start→target path whose cost is the two sides' costs summed.
// μ is the cheapest meeting so far, and the search stops once the two
// queues' least keys together reach μ, since every path not yet offered
// runs through a vertex neither side has settled. Each step expands the
// side whose queue holds fewer entries.
//
// The answer is a minimum-cost path, and among equal-cost paths a fixed
// one for a given version and weights, not necessarily the one the
// one-sided kernel settles first. Its cost is summed left to right along
// the path, as the one-sided kernel sums it, so the two agree exactly
// whenever the weights' sums are exact in float64 (integer weights, for
// one); otherwise they may differ in the last bits.
//
// The kernel has two preconditions, which the caller checks before it
// starts one. The spec has the shape the search answers: a bound target,
// MinLen at most 1, no MaxLen, no edge or vertex filter, no Prune. And
// every live edge of the version has a weight the one-sided kernel
// accepts — a number, not NaN, not negative — since that kernel raises an
// error for any bad weight it reaches, and this search reaches far fewer
// edges (catalog.GraphViewAt.WeightsVouched). A violated precondition is
// reported through Err, with no path: a spec of another shape before the
// search, a bad weight when the search reads it.

// EdgeWeight reads an edge's weight with no side effect; ok is false when
// the weight is not a number.
type EdgeWeight func(e *Edge) (w float64, ok bool)

// pairNode is one node of a two-sided search tree, rooted at the start
// (forward) or at the target (backward). cost is the node's distance from
// its root and w the weight of the edge to its parent, so the backward
// part of a path can be summed left to right at emission. settled marks
// the node its vertex was settled through.
type pairNode struct {
	parent, edge, v int32
	settled         bool
	cost, w         float64
}

// spSide is one direction of a two-sided search. seen is stamped with the
// scratch's epoch, like visited: seen[v] == epoch ⇒ node[v] is the node of
// v's cheapest queued cost, and v is settled iff that node is. A vertex's
// first non-stale pop is always node[v]'s entry: a later push for v is
// strictly cheaper (the k=1 dominance rule) and so pops first.
type spSide struct {
	seen []uint32
	node []int32

	nodes  []pairNode
	q      radixQueue
	queued int // entries in q, stale ones included
}

// reset empties the side for a search over n dense vertexes.
func (d *spSide) reset(n int) {
	if len(d.seen) < n { // fresh zeroes match no epoch
		d.seen, d.node = make([]uint32, n), make([]int32, n)
	}
	d.nodes = d.nodes[:0]
	d.q.reset()
	d.queued = 0
}

// add appends n to the tree and queues it as its vertex's cheapest node.
func (d *spSide) add(n pairNode, epoch uint32) int32 {
	ni := int32(len(d.nodes))
	d.nodes = append(d.nodes, n)
	d.seen[n.v], d.node[n.v] = epoch, ni
	d.q.push(spQueueItem{key: spKey(n.cost), node: ni, v: n.v})
	d.queued++
	return ni
}

// best returns v's cheapest queued node, nil when v was never queued.
func (d *spSide) best(v int32, epoch uint32) *pairNode {
	if d.seen[v] != epoch {
		return nil
	}
	return &d.nodes[d.node[v]]
}

type csrPairIter struct {
	c         *CSR
	spec      Spec
	s         *csrScratch
	read      EdgeWeight
	startIdx  int32
	targetIdx int32
	err       error
	// meet holds the forward and backward nodes of the cheapest meeting
	// (-1: none yet), mu its cost.
	meet     [2]int32
	mu       float64
	searched bool
	emitted  bool
	released bool
	halt     stopper
}

// errPairShape reports a spec NewCSRShortestPair does not search.
var errPairShape = errors.New("two-sided SPScan: the spec is not one the search answers")

// NewCSRShortestPair creates the two-sided k=1 shortest-path traversal
// over the version. Under the preconditions of the file comment it
// answers as the one-sided kernel (NewCSRShortest with k = 1) does in
// existence and cost (see the file comment for ties and float sums). Weights come from
// spec.Weights where it holds a number and from read otherwise.
func NewCSRShortestPair(c *CSR, spec Spec, read EdgeWeight) *csrPairIter {
	s := c.getScratch(&c.m.spPool)
	it := &s.pair
	*it = csrPairIter{c: c, spec: spec, s: s, read: read,
		meet: [2]int32{-1, -1}, halt: stopper{done: spec.Done}}
	it.startIdx = c.indexOfVertex(spec.Start)
	it.targetIdx = c.targetIndex(spec.Target)
	return it
}

// Err reports a violated precondition (see the file comment). It must be
// read before Release.
func (it *csrPairIter) Err() error { return it.err }

// run searches once, on the first Step or Next.
func (it *csrPairIter) run() {
	if it.searched || it.released {
		return
	}
	it.searched = true
	sp := &it.spec
	if sp.Target == nil || sp.MaxLen > 0 || sp.MinLen > 1 ||
		sp.FilterEdge != nil || sp.FilterVertex != nil || sp.Prune != nil {
		it.err = errPairShape
		return
	}
	if it.err = it.search(); it.err != nil {
		it.meet = [2]int32{-1, -1}
	}
}

func (it *csrPairIter) Step() bool {
	it.run()
	if it.released || it.emitted || it.meet[0] < 0 {
		return false
	}
	it.emitted = true
	return true
}

func (it *csrPairIter) Next() *Path {
	if !it.Step() {
		return nil
	}
	s := it.s
	cost := it.chain()
	return it.c.buildPath(s.pathV, s.pathE, cost)
}

func (it *csrPairIter) Release() {
	if it.released {
		return
	}
	it.released = true
	s := it.s
	it.s = nil
	it.c.m.spPool.Put(s)
}

// search runs the two-sided search, leaving the cheapest meeting in
// it.meet (none when the target is unreachable or the search halted). It
// fails on a weight the one-sided kernel would not accept.
func (it *csrPairIter) search() error {
	s := it.s
	if it.startIdx < 0 || it.targetIdx < 0 || !it.spec.admitStart() {
		return nil
	}
	f, b := &s.sides[0], &s.sides[1]
	f.reset(len(s.visited))
	b.reset(len(s.visited))
	f.add(pairNode{parent: -1, edge: -1, v: it.startIdx}, s.epoch)
	b.add(pairNode{parent: -1, edge: -1, v: it.targetIdx}, s.epoch)
	if it.startIdx == it.targetIdx {
		// The one-sided kernel settles the start once, at length 0.
		if it.spec.MinLen <= 0 {
			it.meet, it.mu = [2]int32{0, 0}, 0
		}
		return nil
	}
	for !it.halt.stop() {
		kf, okf := f.q.peek()
		kb, okb := b.q.peek()
		if !okf || !okb {
			return nil // one side has settled everything it reaches
		}
		if it.meet[0] >= 0 && math.Float64frombits(kf)+math.Float64frombits(kb) >= it.mu {
			return nil
		}
		d := 0
		if b.queued < f.queued {
			d = 1
		}
		if err := it.settle(d); err != nil {
			return err
		}
	}
	it.meet = [2]int32{-1, -1} // halted: emit nothing, like the one-sided kernel
	return nil
}

// settle pops side d's least entry and, unless it is stale, settles its
// vertex and relaxes its arcs. It fails on a weight the one-sided kernel
// would not accept.
func (it *csrPairIter) settle(d int) error {
	s, c := it.s, it.c
	me, other := &s.sides[d], &s.sides[1-d]
	top, _ := me.q.pop()
	me.queued--
	v := top.v
	if me.nodes[me.node[v]].settled {
		return nil // stale
	}
	me.nodes[top.node].settled = true
	n := me.nodes[top.node] // copy: the arena may grow below
	tos, edges, arcW, pos := it.arcs(d, v)
	for ai, x := range tos {
		bx := me.best(x, s.epoch)
		if bx != nil && bx.settled {
			continue
		}
		if it.spec.Traversed != nil {
			*it.spec.Traversed++
		}
		ei := edges[ai]
		w := math.NaN()
		switch wc := it.spec.Weights; {
		case arcW != nil:
			w = arcW[ai]
		case pos != nil:
			w = wc[pos[ai]]
		case c.n != 0 && int(ei) < len(wc):
			w = wc[ei]
		}
		if math.IsNaN(w) {
			var ok bool
			if w, ok = it.read(c.edge(ei)); !ok {
				return fmt.Errorf("two-sided SPScan: edge %d has no numeric weight", c.edge(ei).ID)
			}
		}
		if !(w >= 0) {
			return fmt.Errorf("two-sided SPScan: edge %d has weight %g", c.edge(ei).ID, w)
		}
		cost := n.cost + w
		if bx != nil && cost >= bx.cost {
			continue // cannot beat the entry already queued for x
		}
		np := me.add(pairNode{parent: top.node, edge: ei, v: x, cost: cost, w: w}, s.epoch)
		if ox := other.best(x, s.epoch); ox != nil {
			if total := cost + ox.cost; it.meet[0] < 0 || total < it.mu {
				it.mu = total
				it.meet[d], it.meet[1-d] = np, other.node[x]
			}
		}
	}
	return nil
}

// arcs returns v's arcs for side d (view.sideArcs) and, where the weight
// column is in arc order (a version without a delta), where their weights
// sit in it: the run arcW for traversal arcs, the positions pos for
// in-arcs.
func (it *csrPairIter) arcs(d int, v int32) (to, edge []int32, arcW []float64, pos []int32) {
	c, m := it.c, it.c.m
	it.s.arcs.reset()
	to, edge = c.sideArcs(d == 1, v, &it.s.arcs)
	if wc := it.spec.Weights; c.n == 0 && len(wc) > 0 {
		if d == 0 || !m.directed {
			arcW = wc[m.adjOff[v]:m.adjOff[v+1]]
		} else {
			pos = m.inArcPos()[m.inOff[v]:m.inOff[v+1]]
		}
	}
	return to, edge, arcW, pos
}

// chain fills s.pathV/s.pathE with the cheapest meeting's path — the
// forward tree's chain from the start to the meeting vertex, then the
// backward tree's chain from there to the target — and returns its cost
// summed left to right.
func (it *csrPairIter) chain() float64 {
	s := it.s
	f, b := &s.sides[0], &s.sides[1]
	nf, nb := 0, 0
	for x := it.meet[0]; f.nodes[x].parent >= 0; x = f.nodes[x].parent {
		nf++
	}
	for x := it.meet[1]; b.nodes[x].parent >= 0; x = b.nodes[x].parent {
		nb++
	}
	s.pathV, s.pathE = sizeI32(s.pathV, nf+nb+1), sizeI32(s.pathE, nf+nb)
	i := nf
	for x := it.meet[0]; ; x = f.nodes[x].parent {
		s.pathV[i] = f.nodes[x].v
		if f.nodes[x].parent < 0 {
			break
		}
		s.pathE[i-1] = f.nodes[x].edge
		i--
	}
	cost := f.nodes[it.meet[0]].cost
	i = nf
	for x := it.meet[1]; b.nodes[x].parent >= 0; x = b.nodes[x].parent {
		s.pathE[i] = b.nodes[x].edge
		cost += b.nodes[x].w
		i++
		s.pathV[i] = b.nodes[b.nodes[x].parent].v
	}
	return cost
}
