package graph

import "math"

// Index-form traversal kernels over a CSR version. Each mirrors its
// pointer twin (dfsIter/bfsIter/spIter) decision for decision — same
// expansion order, same filter/prune call points, same emission
// conditions — so over a version and its materialization (CSR.Graph) the
// two families produce byte-identical path sequences and the pointer
// kernels remain the differential oracle's reference.
//
// What changes is the machinery: visited sets are epoch-stamped uint32
// slabs instead of maps, traversal trees live in pooled arenas of int32
// nodes instead of heap-allocated pnode chains, and the working state
// (stack frames, FIFO, priority queue, scratch paths, the iterator
// structs themselves) all comes from the main's pools, one per kernel
// family (walkPool for DFS/BFS, spPool for SPScan). Steady state a
// traversal allocates only the paths it actually emits — and Step lets
// existence/count consumers skip even that. Every expansion reads a
// vertex's arcs through view.adjacency: main windows for an untouched
// vertex, the live main + delta arcs for a touched one.

// CSRIterator is the interface of the CSR kernels: a PathIterator whose
// scratch can be stepped without materialization and must be released.
type CSRIterator interface {
	PathIterator
	// Step advances to the next result without materializing a Path.
	// Interleaving Step and Next is allowed; each advances once.
	Step() bool
	// Release returns the traversal's scratch to the main's pool.
	// The iterator (and, for shortest-path, its Err) must not be used
	// afterwards; Release is idempotent.
	Release()
}

func csrTargetOK(targetIdx, vi int32) bool {
	return targetIdx == noTarget || vi == targetIdx
}

func csrOkEdge(c *CSR, s *Spec, pos int, ei, from, to int32) bool {
	if s.Traversed != nil {
		*s.Traversed++
	}
	if s.FilterEdge == nil {
		return true
	}
	return s.FilterEdge(pos, c.edge(ei), c.vert(from), c.vert(to))
}

// ---------------------------------------------------------------- DFScan

// csrFrame is one DFS stack frame: a cursor over v's arcs. A touched
// vertex's arcs sit in the scratch arc buffer from mark on.
type csrFrame struct {
	v        int32
	next     int32
	mark     int32
	to, edge []int32
}

type csrDFSIter struct {
	c         *CSR
	spec      Spec
	s         *csrScratch
	startIdx  int32
	targetIdx int32
	depth     int // live frames
	// Emission descriptor filled by step: closeEdge >= 0 adds a cycle
	// closure on top of the working path.
	closeEdge    int32
	closeVert    int32
	pendingStart bool
	done         bool
	released     bool
	halt         stopper
}

// NewCSRDFS creates a depth-first traversal over the version (DFScan).
func NewCSRDFS(c *CSR, spec Spec) CSRIterator {
	s := c.getScratch(&c.m.walkPool)
	it := &s.dfs
	*it = csrDFSIter{c: c, spec: spec, s: s, closeEdge: -1,
		halt: stopper{done: spec.Done}}
	it.startIdx = c.indexOfVertex(spec.Start)
	it.targetIdx = c.targetIndex(spec.Target)
	s.pathV = s.pathV[:0]
	s.pathE = s.pathE[:0]
	if it.startIdx < 0 || !spec.admitStart() {
		it.done = true
		return it
	}
	if spec.Policy == VisitGlobal {
		s.visited[it.startIdx] = s.epoch
	}
	s.pathV = append(s.pathV, it.startIdx)
	it.pushFrame(it.startIdx)
	if spec.MinLen <= 0 && csrTargetOK(it.targetIdx, it.startIdx) {
		it.pendingStart = true
	}
	return it
}

func (it *csrDFSIter) onPath(vi int32) bool {
	s := it.s
	if it.spec.Policy == VisitGlobal {
		return s.visited[vi] == s.epoch
	}
	for _, x := range s.pathV {
		if x == vi {
			return true
		}
	}
	return false
}

func (it *csrDFSIter) pushFrame(vi int32) {
	s := it.s
	if it.depth == len(s.dstack) {
		s.dstack = append(s.dstack, csrFrame{})
	}
	f := &s.dstack[it.depth]
	it.depth++
	f.v, f.next, f.mark = vi, 0, int32(len(s.arcs.to))
	if it.spec.MaxLen > 0 && len(s.pathE) >= it.spec.MaxLen {
		f.to, f.edge = nil, nil // at the length bound: nothing to expand
		return
	}
	f.to, f.edge = it.c.adjacency(vi, &s.arcs)
}

func (it *csrDFSIter) popFrame() {
	s := it.s
	it.depth--
	mark := s.dstack[it.depth].mark
	s.arcs.to, s.arcs.edge = s.arcs.to[:mark], s.arcs.edge[:mark]
	s.pathV = s.pathV[:len(s.pathV)-1]
	if len(s.pathE) > 0 {
		s.pathE = s.pathE[:len(s.pathE)-1]
	}
}

// step advances to the next emission; the result is described by the
// working path plus closeEdge/closeVert.
func (it *csrDFSIter) step() bool {
	if it.released {
		return false
	}
	if it.pendingStart {
		it.pendingStart = false
		it.closeEdge = -1
		return true
	}
	if it.done {
		return false
	}
	s, c := it.s, it.c
	for it.depth > 0 {
		if it.halt.stop() {
			break
		}
		f := &s.dstack[it.depth-1]
		if int(f.next) >= len(f.to) {
			it.popFrame()
			continue
		}
		ai := f.next
		f.next++
		ei, toI := f.edge[ai], f.to[ai]
		pos := len(s.pathE)
		depth := pos + 1

		// Final-depth fast path, as in the pointer kernel.
		if it.spec.MaxLen > 0 && depth == it.spec.MaxLen &&
			it.targetIdx != noTarget && toI != it.targetIdx {
			continue
		}

		if it.onPath(toI) {
			if it.spec.AllowCycle && toI == it.startIdx && depth >= 2 &&
				it.spec.lenOK(depth) && csrTargetOK(it.targetIdx, toI) &&
				csrOkEdge(c, &it.spec, pos, ei, f.v, toI) {
				keep := true
				if it.spec.Prune != nil {
					s.pathV = append(s.pathV, toI)
					s.pathE = append(s.pathE, ei)
					keep = it.spec.Prune(c.fillPath(&s.scratch, s.pathV, s.pathE, 0))
					s.pathV = s.pathV[:len(s.pathV)-1]
					s.pathE = s.pathE[:len(s.pathE)-1]
				}
				if keep {
					it.closeEdge, it.closeVert = ei, toI
					return true
				}
			}
			continue
		}
		if !csrOkEdge(c, &it.spec, pos, ei, f.v, toI) {
			continue
		}
		if it.spec.FilterVertex != nil && !it.spec.FilterVertex(depth, c.vert(toI)) {
			continue
		}
		s.pathE = append(s.pathE, ei)
		s.pathV = append(s.pathV, toI)
		if it.spec.Prune != nil && !it.spec.Prune(c.fillPath(&s.scratch, s.pathV, s.pathE, 0)) {
			s.pathE = s.pathE[:len(s.pathE)-1]
			s.pathV = s.pathV[:len(s.pathV)-1]
			continue
		}
		if it.spec.Policy == VisitGlobal {
			s.visited[toI] = s.epoch
		}
		it.pushFrame(toI)
		if it.spec.lenOK(depth) && csrTargetOK(it.targetIdx, toI) {
			it.closeEdge = -1
			return true
		}
	}
	it.done = true
	return false
}

func (it *csrDFSIter) Step() bool { return it.step() }

func (it *csrDFSIter) Next() *Path {
	if !it.step() {
		return nil
	}
	s := it.s
	if it.closeEdge >= 0 {
		s.pathV = append(s.pathV, it.closeVert)
		s.pathE = append(s.pathE, it.closeEdge)
		p := it.c.buildPath(s.pathV, s.pathE, 0)
		s.pathV = s.pathV[:len(s.pathV)-1]
		s.pathE = s.pathE[:len(s.pathE)-1]
		return p
	}
	return it.c.buildPath(s.pathV, s.pathE, 0)
}

func (it *csrDFSIter) Release() {
	if it.released {
		return
	}
	it.released, it.done = true, true
	s := it.s
	it.s = nil
	it.c.m.walkPool.Put(s)
}

// ---------------------------------------------------------------- BFScan

type csrBFSIter struct {
	c         *CSR
	spec      Spec
	s         *csrScratch
	startIdx  int32
	targetIdx int32

	qHead int
	// In-progress expansion: arena index of the node at the logical queue
	// head plus a cursor over its arcs.
	cur        int32
	aNext      int32
	aTo, aEdge []int32

	pendingRoot bool
	// Emission descriptor filled by step.
	emitNode  int32
	closeEdge int32
	closeVert int32
	done      bool
	released  bool
	halt      stopper
}

// NewCSRBFS creates a breadth-first traversal over the version (BFScan).
func NewCSRBFS(c *CSR, spec Spec) CSRIterator {
	s := c.getScratch(&c.m.walkPool)
	it := &s.bfs
	*it = csrBFSIter{c: c, spec: spec, s: s, cur: -1, closeEdge: -1,
		halt: stopper{done: spec.Done}}
	it.startIdx = c.indexOfVertex(spec.Start)
	it.targetIdx = c.targetIndex(spec.Target)
	s.queue = s.queue[:0]
	s.nodes = s.nodes[:0]
	it.qHead = 0
	if it.startIdx < 0 || !spec.admitStart() {
		it.done = true
		return it
	}
	s.nodes = append(s.nodes, csrNode{parent: -1, edge: -1, v: it.startIdx})
	s.visited[it.startIdx] = s.epoch
	s.queue = append(s.queue, 0)
	if spec.MinLen <= 0 && csrTargetOK(it.targetIdx, it.startIdx) {
		it.pendingRoot = true
	}
	return it
}

func (it *csrBFSIter) step() bool {
	if it.released {
		return false
	}
	if it.pendingRoot {
		it.pendingRoot = false
		it.emitNode, it.closeEdge = 0, -1
		return true
	}
	s, c := it.s, it.c
	for !it.done {
		if it.halt.stop() {
			break
		}
		if it.cur < 0 {
			if it.qHead >= len(s.queue) {
				break
			}
			ni := s.queue[it.qHead]
			it.qHead++
			if it.spec.MaxLen > 0 && int(s.nodes[ni].depth) >= it.spec.MaxLen {
				continue
			}
			it.cur = ni
			s.arcs.reset()
			it.aNext = 0
			it.aTo, it.aEdge = c.adjacency(s.nodes[ni].v, &s.arcs)
		}
		cur := it.cur
		n := s.nodes[cur] // copy: the arena may grow during expansion
		pos := int(n.depth)
		for int(it.aNext) < len(it.aTo) {
			if it.halt.stop() {
				it.done = true
				return false
			}
			ai := it.aNext
			it.aNext++
			ei, toI := it.aEdge[ai], it.aTo[ai]
			// Final-depth fast path: see the DFS counterpart.
			if it.spec.MaxLen > 0 && pos+1 == it.spec.MaxLen &&
				it.targetIdx != noTarget && toI != it.targetIdx {
				continue
			}
			seen := s.visited[toI] == s.epoch
			if it.spec.Policy == VisitPerPath {
				seen = s.chainContains(cur, toI)
			}
			if seen {
				if it.spec.AllowCycle && toI == it.startIdx && pos+1 >= 2 &&
					it.spec.lenOK(pos+1) && csrTargetOK(it.targetIdx, toI) &&
					csrOkEdge(c, &it.spec, pos, ei, n.v, toI) {
					if it.spec.Prune != nil {
						s.chainIdx(cur, ei, toI)
						if !it.spec.Prune(c.fillPath(&s.scratch, s.pathV, s.pathE, 0)) {
							continue
						}
					}
					it.emitNode, it.closeEdge, it.closeVert = cur, ei, toI
					return true
				}
				continue
			}
			if !csrOkEdge(c, &it.spec, pos, ei, n.v, toI) {
				continue
			}
			if it.spec.FilterVertex != nil && !it.spec.FilterVertex(pos+1, c.vert(toI)) {
				continue
			}
			// Prune consults the refilled scratch path before the candidate
			// node exists, so a rejected expansion allocates nothing.
			if it.spec.Prune != nil {
				s.chainIdx(cur, ei, toI)
				if !it.spec.Prune(c.fillPath(&s.scratch, s.pathV, s.pathE, 0)) {
					continue
				}
			}
			np := int32(len(s.nodes))
			s.nodes = append(s.nodes, csrNode{parent: cur, edge: ei, v: toI, depth: n.depth + 1})
			if it.spec.Policy == VisitGlobal {
				s.visited[toI] = s.epoch
			}
			s.queue = append(s.queue, np)
			if it.spec.lenOK(pos+1) && csrTargetOK(it.targetIdx, toI) {
				it.emitNode, it.closeEdge = np, -1
				return true
			}
		}
		it.cur = -1
	}
	it.done = true
	return false
}

func (it *csrBFSIter) Step() bool { return it.step() }

func (it *csrBFSIter) Next() *Path {
	if !it.step() {
		return nil
	}
	s := it.s
	s.chainIdx(it.emitNode, it.closeEdge, it.closeVert)
	return it.c.buildPath(s.pathV, s.pathE, 0)
}

func (it *csrBFSIter) Release() {
	if it.released {
		return
	}
	it.released, it.done = true, true
	s := it.s
	it.s = nil
	it.c.m.walkPool.Put(s)
}

// ---------------------------------------------------------------- SPScan

type csrSPIter struct {
	c         *CSR
	spec      Spec
	s         *csrScratch
	weight    WeightFunc
	k         int32
	startIdx  int32
	targetIdx int32
	emitNode  int32
	err       error
	done      bool
	released  bool
	halt      stopper
}

// NewCSRShortest creates a lazy shortest-path traversal over the version
// (SPScan); semantics match NewShortest, including the per-vertex settle
// cap k and the negative- or NaN-weight error surfaced through Err.
// Weights come from spec.Weights where it holds a number and from weight
// otherwise.
func NewCSRShortest(c *CSR, spec Spec, weight WeightFunc, k int) *csrSPIter {
	if k < 1 {
		k = 1
	}
	s := c.getScratch(&c.m.spPool)
	it := &s.spi
	*it = csrSPIter{c: c, spec: spec, s: s, weight: weight, k: int32(k),
		halt: stopper{done: spec.Done}}
	it.startIdx = c.indexOfVertex(spec.Start)
	it.targetIdx = c.targetIndex(spec.Target)
	s.sp = s.sp[:0]
	s.spq.reset()
	if len(s.settledE) < len(s.visited) { // fresh zeroes match no epoch
		s.settledE = make([]uint32, len(s.visited))
		s.settledC = make([]int32, len(s.visited))
	}
	if k == 1 && len(s.best) < len(s.visited) {
		s.best = make([]float64, len(s.visited))
	}
	if it.startIdx < 0 || !spec.admitStart() {
		it.done = true
		return it
	}
	s.sp = append(s.sp, csrSPNode{parent: -1, edge: -1, v: it.startIdx})
	s.spq.push(spQueueItem{node: 0, v: it.startIdx})
	return it
}

// Err returns the first traversal error (e.g. a negative edge weight).
// It must be read before Release.
func (it *csrSPIter) Err() error { return it.err }

func (it *csrSPIter) step() bool {
	if it.released || it.done || it.err != nil {
		return false
	}
	s, c := it.s, it.c
	for it.err == nil {
		if it.halt.stop() {
			break
		}
		top, ok := s.spq.pop()
		if !ok {
			break
		}
		end := top.v
		if s.settled(end) >= it.k {
			continue
		}
		ni := top.node
		n := s.sp[ni] // copy: the arena may grow during expansion
		s.settleInc(end)
		// Expand before deciding whether to emit (laziness under LIMIT),
		// exactly like the pointer kernel.
		if it.spec.MaxLen <= 0 || int(n.depth) < it.spec.MaxLen {
			pos := int(n.depth)
			s.arcs.reset()
			tos, edges := c.adjacency(end, &s.arcs)
			// Without a delta the weight column is in arc order and end's
			// weights are one window of it; with one it is by edge index
			// (EdgeColumn).
			var arcW []float64
			wc := it.spec.Weights
			if c.n == 0 && len(wc) > 0 {
				arcW = wc[c.m.adjOff[end]:c.m.adjOff[end+1]]
			}
			for ai, toI := range tos {
				ei := edges[ai]
				if s.settled(toI) >= it.k {
					continue
				}
				// Simple paths only. At k=1 every vertex on the chain is
				// settled, so the check above has rejected it already.
				if it.k > 1 && s.spChainContains(ni, toI) {
					continue
				}
				if !csrOkEdge(c, &it.spec, pos, ei, end, toI) {
					continue
				}
				if it.spec.FilterVertex != nil && !it.spec.FilterVertex(pos+1, c.vert(toI)) {
					continue
				}
				w := math.NaN()
				if arcW != nil {
					w = arcW[ai]
				} else if int(ei) < len(wc) {
					w = wc[ei]
				}
				if math.IsNaN(w) {
					var ok bool
					if w, ok = it.weight(pos, c.edge(ei), c.vert(end), c.vert(toI)); !ok {
						continue
					}
				}
				if !(w >= 0) {
					it.err = weightError(c.m.name, w, c.edge(ei).ID)
					break
				}
				cost := n.cost + w
				if it.spec.Prune != nil {
					s.spChainIdx(ni, ei, toI)
					if !it.spec.Prune(c.fillPath(&s.scratch, s.pathV, s.pathE, cost)) {
						continue
					}
				}
				// At k=1 a candidate no cheaper than one already queued for
				// toI can never win: the earlier entry pops first (lower
				// cost, or equal cost and lower node) and settles toI, so
				// this one would pop as a stale entry and be skipped.
				if it.k == 1 {
					if s.visited[toI] == s.epoch && cost >= s.best[toI] {
						continue
					}
					s.visited[toI], s.best[toI] = s.epoch, cost
				}
				np := int32(len(s.sp))
				s.sp = append(s.sp, csrSPNode{parent: ni, edge: ei, v: toI,
					depth: n.depth + 1, cost: cost})
				s.spq.push(spQueueItem{key: spKey(cost), node: np, v: toI})
			}
		}
		if it.err != nil {
			return false
		}
		if it.spec.lenOK(int(n.depth)) && csrTargetOK(it.targetIdx, end) {
			it.emitNode = ni
			return true
		}
	}
	it.done = true
	return false
}

func (it *csrSPIter) Step() bool { return it.step() }

func (it *csrSPIter) Next() *Path {
	if !it.step() {
		return nil
	}
	s := it.s
	s.spChainIdx(it.emitNode, -1, -1)
	return it.c.buildPath(s.pathV, s.pathE, s.sp[it.emitNode].cost)
}

func (it *csrSPIter) Release() {
	if it.released {
		return
	}
	it.released, it.done = true, true
	s := it.s
	it.s = nil
	it.c.m.spPool.Put(s)
}
