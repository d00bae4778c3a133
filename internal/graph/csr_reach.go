package graph

import "errors"

// This file implements the two-sided BFScan kernel: a visit-once
// breadth-first search between a bound start and a bound target, run from
// both ends at once, one whole level at a time.
//
// A forward side grows a breadth-first tree outward from the start over
// the traversal arcs; a backward side grows one outward from the target
// over the in-arcs (the traversal arcs again on an undirected view). Each
// step expands the whole frontier of the side whose frontier has fewer
// arcs (the sum of its vertexes' degrees on that side; the forward side on
// a tie). The search stops at the first vertex one side discovers that the
// other has already seen, and emits the forward chain to it followed by
// the backward chain from it. It also stops, with no path, when either
// frontier empties: that side has seen everything it reaches, and so the
// other root is not among it.
//
// The first meeting is a minimum-hop path. Say the forward side has
// expanded i levels, so it has seen exactly the vertexes within i hops of
// the start, and the backward side j levels, so it has seen exactly those
// within j hops of the target, and no vertex has been seen by both (a
// second sighting is a meeting). If a path of at most i+j hops existed,
// its vertex i hops from the start would be within j hops of the target
// and so seen by both sides; hence the distance is at least i+j+1. A
// meeting while the forward side expands level i+1 joins a forward chain
// of i+1 hops to a backward chain of at most j hops, so its path has at
// most, and therefore exactly, i+j+1 hops (symmetrically for the backward
// side). A path of minimum length repeats no vertex, so it is simple.
//
// The answer is a minimum-hop path, and among equal-length paths a fixed
// one for a given version — not necessarily the one the one-sided BFScan
// (NewCSRBFS) discovers first. Start = target answers with the
// zero-length path iff MinLen <= 0, as the one-sided kernel does.
//
// The kernel has one precondition, which the caller checks before it
// starts one: the spec has the shape the search answers — a bound target,
// visit-once, MinLen at most 1, no MaxLen, no cycle closure, no edge or
// vertex filter and no Prune. A spec of another shape is reported through
// Err, with no path.

// reachSide is one direction of a two-sided BFS. seen is stamped with the
// scratch's epoch, like visited; queue holds the vertexes the side has
// seen in discovery order, and its window [lo, hi) is the frontier, the
// level the side expands next. arcs is the frontier's degree sum.
type reachSide struct {
	seen   []uint32
	queue  []int32
	lo, hi int
	arcs   int64
}

// reset empties the side for a search over n dense vertexes.
func (d *reachSide) reset(n int) {
	if len(d.seen) < n { // fresh zeroes match no epoch
		d.seen = make([]uint32, n)
	}
	d.queue = d.queue[:0]
	d.lo, d.hi, d.arcs = 0, 0, 0
}

type csrReachIter struct {
	c         *CSR
	spec      Spec
	s         *csrScratch
	startIdx  int32
	targetIdx int32
	err       error
	// meet is the vertex where the sides met (-1: none). The side
	// meetSide discovered it from via over viaEdge; the other side's
	// parent for it is in the scratch's reachPar/reachEdge. meetSide is
	// -1 for the zero-length path, where meet is both roots.
	meet, via, viaEdge int32
	meetSide           int
	searched           bool
	emitted            bool
	released           bool
	halt               stopper
}

// errReachShape reports a spec NewCSRReach does not search.
var errReachShape = errors.New("two-sided BFScan: the spec is not one the search answers")

// NewCSRReach creates the two-sided BFS traversal over the version. Under
// the precondition of the file comment it answers as the one-sided BFScan
// (NewCSRBFS) does in existence and path length, scanning far fewer arcs.
func NewCSRReach(c *CSR, spec Spec) *csrReachIter {
	s := c.getScratch(&c.m.walkPool)
	it := &s.reach
	*it = csrReachIter{c: c, spec: spec, s: s, meet: -1, halt: stopper{done: spec.Done}}
	it.startIdx = c.indexOfVertex(spec.Start)
	it.targetIdx = c.targetIndex(spec.Target)
	return it
}

// Err reports a spec of another shape (see the file comment). It must be
// read before Release.
func (it *csrReachIter) Err() error { return it.err }

func (it *csrReachIter) Step() bool {
	if !it.searched && !it.released {
		it.searched = true
		sp := &it.spec
		if sp.Target == nil || sp.MaxLen > 0 || sp.MinLen > 1 || sp.Policy != VisitGlobal || sp.AllowCycle ||
			sp.FilterEdge != nil || sp.FilterVertex != nil || sp.Prune != nil {
			it.err = errReachShape
		} else {
			it.search()
		}
	}
	if it.released || it.emitted || it.meet < 0 {
		return false
	}
	it.emitted = true
	return true
}

func (it *csrReachIter) Next() *Path {
	if !it.Step() {
		return nil
	}
	it.chain()
	return it.c.buildPath(it.s.pathV, it.s.pathE, 0)
}

func (it *csrReachIter) Release() {
	if it.released {
		return
	}
	it.released = true
	s := it.s
	it.s = nil
	it.c.m.walkPool.Put(s)
}

// search runs the two-sided search, leaving the meeting in it.meet (none
// when the target is unreachable or the search halted).
func (it *csrReachIter) search() {
	s, c := it.s, it.c
	if it.startIdx < 0 || it.targetIdx < 0 || !it.spec.admitStart() {
		return
	}
	n := len(s.visited)
	if len(s.reachPar) < n {
		s.reachPar, s.reachEdge = make([]int32, n), make([]int32, n)
	}
	for d, root := range [2]int32{it.startIdx, it.targetIdx} {
		side := &s.rsides[d]
		side.reset(n)
		side.seen[root] = s.epoch
		side.queue = append(side.queue, root)
		side.hi, side.arcs = 1, c.sideDegree(d == 1, root)
		s.reachPar[root] = -1
	}
	if it.startIdx == it.targetIdx {
		// The one-sided kernel emits the start once, at length 0.
		if it.spec.MinLen <= 0 {
			it.meet, it.meetSide = it.startIdx, -1
		}
		return
	}
	f, b := &s.rsides[0], &s.rsides[1]
	for f.lo < f.hi && b.lo < b.hi {
		d := 0
		if b.arcs < f.arcs {
			d = 1
		}
		if it.expand(d) {
			return
		}
	}
}

// expand expands side d's whole frontier and makes the vertexes it
// discovers the next one. It reports whether the search is over: the
// sides met, or the search halted (with no meeting: emit nothing, like
// the one-sided kernel).
func (it *csrReachIter) expand(d int) bool {
	s, c := it.s, it.c
	me, other := &s.rsides[d], &s.rsides[1-d]
	epoch := s.epoch
	var arcs int64
	for _, v := range me.queue[me.lo:me.hi] {
		if it.halt.stop() {
			return true
		}
		s.arcs.reset()
		tos, edges := c.sideArcs(d == 1, v, &s.arcs)
		for ai, x := range tos {
			if me.seen[x] == epoch {
				continue
			}
			if it.spec.Traversed != nil {
				*it.spec.Traversed++
			}
			if other.seen[x] == epoch {
				it.meet, it.via, it.viaEdge, it.meetSide = x, v, edges[ai], d
				return true
			}
			me.seen[x] = epoch
			s.reachPar[x], s.reachEdge[x] = v, edges[ai]
			me.queue = append(me.queue, x)
			arcs += c.sideDegree(d == 1, x)
		}
	}
	me.lo, me.hi, me.arcs = me.hi, len(me.queue), arcs
	return false
}

// parent returns the meeting vertex's parent toward side d's root and
// the edge to it, -1 when the meeting vertex is that root.
func (it *csrReachIter) parent(d int) (v, e int32) {
	if it.meetSide == d {
		return it.via, it.viaEdge
	}
	return it.s.reachPar[it.meet], it.s.reachEdge[it.meet]
}

// chain fills s.pathV/s.pathE with the meeting's path: the forward tree's
// chain from the start to the meeting vertex, then the backward tree's
// chain from there to the target.
func (it *csrReachIter) chain() {
	s := it.s
	hops := func(d int) int {
		n := 0
		for v, _ := it.parent(d); v >= 0; v = s.reachPar[v] {
			n++
		}
		return n
	}
	nf, nb := hops(0), hops(1)
	s.pathV, s.pathE = sizeI32(s.pathV, nf+nb+1), sizeI32(s.pathE, nf+nb)
	s.pathV[nf] = it.meet
	i := nf
	for v, e := it.parent(0); v >= 0; v, e = s.reachPar[v], s.reachEdge[v] {
		i--
		s.pathV[i], s.pathE[i] = v, e
	}
	i = nf
	for v, e := it.parent(1); v >= 0; v, e = s.reachPar[v], s.reachEdge[v] {
		s.pathE[i] = e
		i++
		s.pathV[i] = v
	}
}

// sideDegree counts what sideArcs returns for v.
func (c *view) sideDegree(back bool, v int32) int64 {
	m := c.m
	if !c.clean(v) {
		n := c.countArcs(v, back && m.directed, false)
		if !m.directed {
			n += c.countArcs(v, true, true)
		}
		return int64(n)
	}
	if back && m.directed {
		return int64(m.inOff[v+1] - m.inOff[v])
	}
	return int64(m.adjOff[v+1] - m.adjOff[v])
}
