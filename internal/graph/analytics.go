package graph

// This file implements the whole-graph analytics kernels behind the
// GV.PAGERANK / GV.CONNECTED_COMPONENTS / GV.LABEL_PROPAGATION /
// GV.DEGREE_CENTRALITY table-valued functions: vertex-centric algorithms
// over the CSR snapshot's flat arrays, the workload GraphGen runs
// in-engine so results join back against relational attributes.
//
// Parallelism model. Every kernel splits the vertex range into fixed
// 1024-vertex chunks and hands chunks to a worker pool. Determinism is a
// hard contract (the oracle diffs results across worker counts and
// layouts), so the chunking never depends on the worker count and the
// kernels obey two rules:
//
//   - a parallel phase writes only per-vertex state owned by the chunk
//     being processed (or state claimed through a CAS whose winner writes
//     a value independent of the race), and integer per-chunk partials;
//   - every floating-point reduction — PageRank's dangling mass and
//     convergence delta — runs sequentially on the coordinator in
//     ascending vertex order, so the summation order is fixed.
//
// Under those rules the parallel kernels are bit-identical to their
// sequential selves at any worker count, and also to the Ref* pointer-graph
// references below, because the CSR adjacency arrays mirror the pointer
// lists' order exactly (see csr.go's determinism contract).
//
// Cancellation threads through like every other kernel: the done channel
// is polled between chunks and levels, and a halted run returns ErrStopped
// for the executor to map to its typed cause.

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// analyticsChunk is the fixed chunk size of the analytics worker pool. It
// is independent of the worker count on purpose: the chunk grid, not the
// workers, defines the units of owned state.
const analyticsChunk = 1024

// Direction-switching thresholds of the direction-optimizing BFS, the GAP
// benchmark's heuristic: switch top-down → bottom-up when the frontier's
// out-edges exceed 1/alpha of the unexplored edges, and back when the
// frontier shrinks below 1/beta of the vertices.
const (
	dobfsAlpha = 14
	dobfsBeta  = 24
)

// ComponentsStats reports what a Components run actually did, surfaced by
// EXPLAIN ANALYZE.
type ComponentsStats struct {
	// Components is the number of weakly-connected components found.
	Components int
	// Levels counts BFS frontier expansions across all components.
	Levels int
	// TopDown and BottomUp split Levels by traversal direction.
	TopDown, BottomUp int
}

// analyticsScratch is the pooled per-run state of the analytics kernels:
// rank/label double buffers, the frontier and visited bitmaps, per-chunk
// partial counters, and per-worker neighbor-label buffers. One scratch
// serves one run at a time; Release returns it to the snapshot's pool, so
// steady-state analytics allocate nothing.
type analyticsScratch struct {
	rank, rank2 []float64
	lbl, lbl2   []int64

	visited, cur, next []uint32 // bitmaps, one bit per vertex

	cnt1, cnt2 []int64 // per-chunk integer partials

	nbufs [][]int64 // per-worker label multiset buffers

	// Preallocated chunk runners: runChunks takes an interface instead of
	// a closure so a steady-state run performs zero allocations (a closure
	// literal plus its captures would escape on every call).
	pr prRun
	td wccTopDown
	bu wccBottomUp
	lp lpRun
}

// Analytics is a handle on one pooled analytics run over a CSR snapshot.
// The slices returned by its kernels live in the pooled scratch: they stay
// valid until Release, after which the pool may hand the memory to the
// next run.
type Analytics struct {
	c *CSR
	s *analyticsScratch
}

// NewAnalytics takes an analytics scratch from the snapshot's pool. The
// returned handle is a value so steady-state runs allocate nothing.
func (c *CSR) NewAnalytics() Analytics {
	return Analytics{c: c, s: c.apool.Get().(*analyticsScratch)}
}

// Release returns the scratch to the pool, invalidating every slice the
// handle's kernels returned.
func (a Analytics) Release() { a.c.apool.Put(a.s) }

// VertexID maps a dense vertex index to the vertex identifier, letting the
// executor turn kernel outputs (indexed by dense position) into rows.
func (c *CSR) VertexID(i int) int64 { return c.vids[i] }

// stoppedCh reports whether the cancellation signal has fired.
func stoppedCh(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// chunkRunner is one parallel phase of a kernel. runChunk receives the
// worker slot (for per-worker buffers) and the chunk bounds; which worker
// runs which chunk is unspecified, so implementations must only write
// state the chunk owns (plus CAS-claimed state and per-chunk partials).
// It is an interface, not a func value, so kernels can keep their runners
// preallocated in the scratch and stay allocation-free.
type chunkRunner interface{ runChunk(worker, lo, hi int) }

// runChunks applies fn to every 1024-vertex chunk of [0, n). With one
// worker the chunks run inline on the caller with no goroutines and no
// allocation — the zero-alloc configuration the bench gate measures.
func runChunks(done <-chan struct{}, workers, n int, fn chunkRunner) error {
	if n == 0 {
		return nil
	}
	nchunks := (n + analyticsChunk - 1) / analyticsChunk
	if workers > nchunks {
		workers = nchunks
	}
	if workers <= 1 {
		for ci := 0; ci < nchunks; ci++ {
			if stoppedCh(done) {
				return ErrStopped
			}
			lo := ci * analyticsChunk
			fn.runChunk(0, lo, min(lo+analyticsChunk, n))
		}
		return nil
	}
	var next atomic.Int64
	var halted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if stoppedCh(done) {
					halted.Store(true)
					return
				}
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo := ci * analyticsChunk
				fn.runChunk(worker, lo, min(lo+analyticsChunk, n))
			}
		}(w)
	}
	wg.Wait()
	if halted.Load() {
		return ErrStopped
	}
	return nil
}

// numChunks returns the chunk count for n vertexes.
func numChunks(n int) int { return (n + analyticsChunk - 1) / analyticsChunk }

// sizeF64 / sizeI64 / sizeU32 resize scratch slices, reusing capacity.
func sizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func sizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func sizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func zeroI64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

func zeroU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// Bitmap primitives. Chunks are 1024 vertexes = 32 whole words, so a chunk
// owns its bitmap words outright and owned phases may use the plain
// variants; cross-chunk claims go through the CAS variants.
func testBit(words []uint32, i int32) bool {
	return words[i>>5]&(uint32(1)<<(uint(i)&31)) != 0
}

func setBit(words []uint32, i int32) {
	words[i>>5] |= uint32(1) << (uint(i) & 31)
}

// claimBit atomically test-and-sets bit i, reporting whether this caller
// won the claim.
func claimBit(words []uint32, i int32) bool {
	w := &words[i>>5]
	mask := uint32(1) << (uint(i) & 31)
	for {
		old := atomic.LoadUint32(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint32(w, old, old|mask) {
			return true
		}
	}
}

// orBit atomically sets bit i.
func orBit(words []uint32, i int32) {
	w := &words[i>>5]
	mask := uint32(1) << (uint(i) & 31)
	for {
		old := atomic.LoadUint32(w)
		if old&mask != 0 || atomic.CompareAndSwapUint32(w, old, old|mask) {
			return
		}
	}
}

// prDegree returns the degree PageRank divides a vertex's rank by: the
// out-degree for directed graphs, the traversal-view degree (every
// incident edge, self-loops once) for undirected ones.
func (c *CSR) prDegree(v int32) int32 {
	if c.directed {
		return c.outOff[v+1] - c.outOff[v]
	}
	return c.adjOff[v+1] - c.adjOff[v]
}

// prRun is the parallel pull phase of one PageRank iteration.
type prRun struct {
	c           *CSR
	rank, rank2 []float64
	base        float64
	damping     float64
}

func (r *prRun) runChunk(_, lo, hi int) {
	c := r.c
	rank, rank2 := r.rank, r.rank2
	if c.directed {
		for v := int32(lo); v < int32(hi); v++ {
			sum := 0.0
			for i := c.inOff[v]; i < c.inOff[v+1]; i++ {
				u := c.inAdj[i]
				sum += rank[u] / float64(c.outOff[u+1]-c.outOff[u])
			}
			rank2[v] = r.base + r.damping*sum
		}
	} else {
		for v := int32(lo); v < int32(hi); v++ {
			sum := 0.0
			for i := c.adjOff[v]; i < c.adjOff[v+1]; i++ {
				u := c.adjTo[i]
				sum += rank[u] / float64(c.adjOff[u+1]-c.adjOff[u])
			}
			rank2[v] = r.base + r.damping*sum
		}
	}
}

// PageRank runs synchronous pull-based PageRank with dangling-mass
// redistribution: maxIters iterations, stopping early when the L1 delta
// between iterations drops to eps or below (eps <= 0 disables the early
// stop). It returns the per-vertex ranks (indexed by dense vertex index,
// valid until Release) and the number of iterations actually run.
func (a Analytics) PageRank(done <-chan struct{}, workers int, damping float64, maxIters int, eps float64) ([]float64, int, error) {
	c, s := a.c, a.s
	nv := len(c.verts)
	if nv == 0 {
		return nil, 0, nil
	}
	s.rank = sizeF64(s.rank, nv)
	s.rank2 = sizeF64(s.rank2, nv)
	rank, rank2 := s.rank, s.rank2
	init := 1 / float64(nv)
	for i := range rank {
		rank[i] = init
	}
	n := float64(nv)
	iters := 0
	for it := 0; it < maxIters; it++ {
		if stoppedCh(done) {
			return nil, iters, ErrStopped
		}
		// Sequential pre-pass, ascending: the dangling mass is a
		// floating-point reduction, so its summation order must not depend
		// on chunking or workers.
		dangling := 0.0
		for v := int32(0); v < int32(nv); v++ {
			if c.prDegree(v) == 0 {
				dangling += rank[v]
			}
		}
		s.pr = prRun{c: c, rank: rank, rank2: rank2,
			base: (1-damping)/n + damping*dangling/n, damping: damping}
		err := runChunks(done, workers, nv, &s.pr)
		if err != nil {
			return nil, iters, err
		}
		// Sequential convergence delta, ascending, same reasoning.
		delta := 0.0
		for v := 0; v < nv; v++ {
			d := rank2[v] - rank[v]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, rank2 = rank2, rank
		iters = it + 1
		if eps > 0 && delta <= eps {
			break
		}
	}
	s.rank, s.rank2 = rank, rank2
	return rank, iters, nil
}

// wccDegree is the undirected degree Components uses for its direction
// heuristic: out + in, i.e. every incident edge arc.
func (c *CSR) wccDegree(v int32) int64 {
	return int64(c.outOff[v+1] - c.outOff[v] + c.inOff[v+1] - c.inOff[v])
}

// wccTopDown is a top-down BFS level: expand the frontier's out+in arcs,
// claiming unvisited endpoints by CAS. The claim winner writes the
// component label — the same value whoever wins — so the race never
// reaches the output.
type wccTopDown struct {
	c                  *CSR
	s                  *analyticsScratch
	cur, next, visited []uint32
	comp               []int64
	label              int64
}

func (r *wccTopDown) runChunk(_, lo, hi int) {
	c := r.c
	ci := lo / analyticsChunk
	var nV, nE int64
	for w := lo >> 5; w < (hi+31)>>5; w++ {
		bm := r.cur[w]
		for bm != 0 {
			v := int32(w<<5) + int32(bits.TrailingZeros32(bm))
			bm &= bm - 1
			for i := c.outOff[v]; i < c.outOff[v+1]; i++ {
				u := c.outAdj[i]
				if claimBit(r.visited, u) {
					r.comp[u] = r.label
					orBit(r.next, u)
					nV++
					nE += c.wccDegree(u)
				}
			}
			for i := c.inOff[v]; i < c.inOff[v+1]; i++ {
				u := c.inAdj[i]
				if claimBit(r.visited, u) {
					r.comp[u] = r.label
					orBit(r.next, u)
					nV++
					nE += c.wccDegree(u)
				}
			}
		}
	}
	r.s.cnt1[ci], r.s.cnt2[ci] = nV, nE
}

// wccBottomUp is a bottom-up BFS level: every unvisited vertex probes its
// own arcs for a frontier neighbor. All writes are chunk-owned (1024
// vertexes = 32 whole bitmap words), so no atomics.
type wccBottomUp struct {
	c                  *CSR
	s                  *analyticsScratch
	cur, next, visited []uint32
	comp               []int64
	label              int64
}

func (r *wccBottomUp) runChunk(_, lo, hi int) {
	c := r.c
	ci := lo / analyticsChunk
	var nV, nE int64
	for v := int32(lo); v < int32(hi); v++ {
		if testBit(r.visited, v) {
			continue
		}
		joined := false
		for i := c.outOff[v]; i < c.outOff[v+1] && !joined; i++ {
			joined = testBit(r.cur, c.outAdj[i])
		}
		for i := c.inOff[v]; i < c.inOff[v+1] && !joined; i++ {
			joined = testBit(r.cur, c.inAdj[i])
		}
		if joined {
			setBit(r.visited, v)
			setBit(r.next, v)
			r.comp[v] = r.label
			nV++
			nE += c.wccDegree(v)
		}
	}
	r.s.cnt1[ci], r.s.cnt2[ci] = nV, nE
}

// Components labels the weakly-connected components: every vertex gets the
// smallest vertex identifier in its component. Each component is explored
// by a parallel level-synchronous BFS over out+in adjacency that switches
// between top-down and bottom-up frontier expansion with the GAP
// heuristic. The labels slice is indexed by dense vertex index and valid
// until Release.
func (a Analytics) Components(done <-chan struct{}, workers int) ([]int64, ComponentsStats, error) {
	c, s := a.c, a.s
	nv := len(c.verts)
	var stats ComponentsStats
	if nv == 0 {
		return nil, stats, nil
	}
	s.lbl = sizeI64(s.lbl, nv)
	comp := s.lbl
	nwords := (nv + 31) / 32
	s.visited = sizeU32(s.visited, nwords)
	s.cur = sizeU32(s.cur, nwords)
	s.next = sizeU32(s.next, nwords)
	visited, cur, next := s.visited, s.cur, s.next
	zeroU32(visited)
	nchunks := numChunks(nv)
	s.cnt1 = sizeI64(s.cnt1, nchunks)
	s.cnt2 = sizeI64(s.cnt2, nchunks)

	// remaining counts the edge arcs incident to still-unvisited vertexes,
	// the denominator of the top-down → bottom-up switch.
	remaining := int64(c.outOff[nv]) + int64(c.inOff[nv])

	for r := int32(0); r < int32(nv); r++ {
		if testBit(visited, r) {
			continue
		}
		stats.Components++
		label := c.vids[r]
		setBit(visited, r)
		comp[r] = label
		remaining -= c.wccDegree(r)
		if c.wccDegree(r) == 0 {
			continue // isolated vertex: no BFS to run
		}
		zeroU32(cur)
		setBit(cur, r)
		frontV, frontE := int64(1), c.wccDegree(r)
		topDown := true
		for frontV > 0 {
			if stoppedCh(done) {
				return nil, stats, ErrStopped
			}
			// Direction heuristic: a frontier about to scan more edges
			// than 1/alpha of the unexplored arcs is cheaper bottom-up; a
			// frontier that shrank below 1/beta of the vertexes goes back
			// to top-down.
			if topDown && frontE > remaining/dobfsAlpha {
				topDown = false
			} else if !topDown && frontV < int64(nv)/dobfsBeta {
				topDown = true
			}
			stats.Levels++
			zeroU32(next)
			zeroI64(s.cnt1[:nchunks])
			zeroI64(s.cnt2[:nchunks])
			var err error
			if topDown {
				stats.TopDown++
				s.td = wccTopDown{c: c, s: s, cur: cur, next: next,
					visited: visited, comp: comp, label: label}
				err = runChunks(done, workers, nv, &s.td)
			} else {
				stats.BottomUp++
				s.bu = wccBottomUp{c: c, s: s, cur: cur, next: next,
					visited: visited, comp: comp, label: label}
				err = runChunks(done, workers, nv, &s.bu)
			}
			if err != nil {
				return nil, stats, err
			}
			frontV, frontE = 0, 0
			for ci := 0; ci < nchunks; ci++ {
				frontV += s.cnt1[ci]
				frontE += s.cnt2[ci]
			}
			remaining -= frontE
			cur, next = next, cur
		}
	}
	s.cur, s.next = cur, next
	return comp, stats, nil
}

// lpRun is the parallel phase of one label-propagation iteration.
type lpRun struct {
	c         *CSR
	s         *analyticsScratch
	lbl, lbl2 []int64
}

func (r *lpRun) runChunk(worker, lo, hi int) {
	c := r.c
	ci := lo / analyticsChunk
	buf := r.s.nbufs[worker]
	var changed int64
	for v := int32(lo); v < int32(hi); v++ {
		buf = buf[:0]
		for i := c.outOff[v]; i < c.outOff[v+1]; i++ {
			buf = append(buf, r.lbl[c.outAdj[i]])
		}
		for i := c.inOff[v]; i < c.inOff[v+1]; i++ {
			buf = append(buf, r.lbl[c.inAdj[i]])
		}
		nl := mostFrequentLabel(buf, r.lbl[v])
		r.lbl2[v] = nl
		if nl != r.lbl[v] {
			changed++
		}
	}
	r.s.nbufs[worker] = buf
	r.s.cnt1[ci] = changed
}

// LabelProp runs synchronous label propagation: labels start as vertex
// identifiers and every iteration each vertex adopts the most frequent
// label among its out+in neighbors (smallest label on ties), until a
// fixpoint or maxIters. Synchronous updates read the previous iteration's
// labels only, so the result is independent of evaluation order. The
// labels slice is indexed by dense vertex index and valid until Release.
func (a Analytics) LabelProp(done <-chan struct{}, workers, maxIters int) ([]int64, int, error) {
	c, s := a.c, a.s
	nv := len(c.verts)
	if nv == 0 {
		return nil, 0, nil
	}
	s.lbl = sizeI64(s.lbl, nv)
	s.lbl2 = sizeI64(s.lbl2, nv)
	lbl, lbl2 := s.lbl, s.lbl2
	copy(lbl, c.vids)
	nchunks := numChunks(nv)
	s.cnt1 = sizeI64(s.cnt1, nchunks)
	if workers < 1 {
		workers = 1
	}
	if len(s.nbufs) < workers {
		s.nbufs = append(s.nbufs, make([][]int64, workers-len(s.nbufs))...)
	}
	iters := 0
	for it := 0; it < maxIters; it++ {
		if stoppedCh(done) {
			return nil, iters, ErrStopped
		}
		s.lp = lpRun{c: c, s: s, lbl: lbl, lbl2: lbl2}
		err := runChunks(done, workers, nv, &s.lp)
		if err != nil {
			return nil, iters, err
		}
		lbl, lbl2 = lbl2, lbl
		iters = it + 1
		changed := int64(0)
		for ci := 0; ci < nchunks; ci++ {
			changed += s.cnt1[ci]
		}
		if changed == 0 {
			break
		}
	}
	s.lbl, s.lbl2 = lbl, lbl2
	return lbl, iters, nil
}

// mostFrequentLabel picks the most frequent value of buf (smallest value on
// ties) by sorting and scanning runs; own breaks a fully empty multiset.
// buf is scratch and comes back reordered.
func mostFrequentLabel(buf []int64, own int64) int64 {
	if len(buf) == 0 {
		return own
	}
	slices.Sort(buf)
	best, bestN := buf[0], 0
	run, runN := buf[0], 1
	for i := 1; i < len(buf); i++ {
		if buf[i] == run {
			runN++
			continue
		}
		if runN > bestN {
			best, bestN = run, runN
		}
		run, runN = buf[i], 1
	}
	if runN > bestN {
		best = run
	}
	return best
}

// Degrees fills the per-vertex degree columns of DEGREE_CENTRALITY with
// the graph's FanOut/FanIn semantics: out/in degree for directed graphs,
// the full incident degree for undirected ones. The slices are indexed by
// dense vertex index and valid until Release.
func (a Analytics) Degrees() (outDeg, inDeg []int64) {
	c, s := a.c, a.s
	nv := len(c.verts)
	s.lbl = sizeI64(s.lbl, nv)
	s.lbl2 = sizeI64(s.lbl2, nv)
	outDeg, inDeg = s.lbl, s.lbl2
	for v := int32(0); v < int32(nv); v++ {
		o := int64(c.outOff[v+1] - c.outOff[v])
		i := int64(c.inOff[v+1] - c.inOff[v])
		if c.directed {
			outDeg[v], inDeg[v] = o, i
		} else {
			outDeg[v], inDeg[v] = o+i, o+i
		}
	}
	return outDeg, inDeg
}

// --- Naive pointer-graph references -------------------------------------
//
// The Ref* functions are the single-threaded reference implementations
// over the pointer topology. They serve the differential oracle and tests
// (cross-checking the CSR kernels the executor runs) and the analytics
// bench's naive baseline; nothing on the execution path calls them. Walking
// vertexes in ascending-ID order and adjacency lists in list order, they
// reduce floats in exactly the order the CSR kernels do, so a reference and
// its kernel return bit-identical rows over the same topology.

// refDegPR is the PageRank degree of v on the pointer graph, mirroring
// CSR.prDegree (undirected counts Out plus non-self-loop In, the traversal
// view's degree).
func refDegPR(g *Graph, v *Vertex) int {
	if g.Directed() {
		return len(v.Out)
	}
	d := len(v.Out)
	for _, e := range v.In {
		if e.From != e.To {
			d++
		}
	}
	return d
}

// RefPageRank is the reference PageRank, keyed by vertex identifier.
func RefPageRank(done <-chan struct{}, g *Graph, damping float64, maxIters int, eps float64) (map[int64]float64, int, error) {
	var vs []*Vertex
	g.Vertices(func(v *Vertex) bool { vs = append(vs, v); return true })
	nv := len(vs)
	if nv == 0 {
		return map[int64]float64{}, 0, nil
	}
	idx := make(map[*Vertex]int, nv)
	deg := make([]int, nv)
	for i, v := range vs {
		idx[v] = i
		deg[i] = refDegPR(g, v)
	}
	rank := make([]float64, nv)
	rank2 := make([]float64, nv)
	init := 1 / float64(nv)
	for i := range rank {
		rank[i] = init
	}
	n := float64(nv)
	iters := 0
	for it := 0; it < maxIters; it++ {
		if stoppedCh(done) {
			return nil, iters, ErrStopped
		}
		dangling := 0.0
		for i := range vs {
			if deg[i] == 0 {
				dangling += rank[i]
			}
		}
		base := (1-damping)/n + damping*dangling/n
		for i, v := range vs {
			sum := 0.0
			if g.Directed() {
				for _, e := range v.In {
					u := idx[e.From]
					sum += rank[u] / float64(deg[u])
				}
			} else {
				// The traversal-view order: Out first, then In skipping
				// self-loops — the order CSR.adjTo was laid out in.
				for _, e := range v.Out {
					u := idx[e.To]
					sum += rank[u] / float64(deg[u])
				}
				for _, e := range v.In {
					if e.From == e.To {
						continue
					}
					u := idx[e.From]
					sum += rank[u] / float64(deg[u])
				}
			}
			rank2[i] = base + damping*sum
		}
		delta := 0.0
		for i := range vs {
			d := rank2[i] - rank[i]
			if d < 0 {
				d = -d
			}
			delta += d
		}
		rank, rank2 = rank2, rank
		iters = it + 1
		if eps > 0 && delta <= eps {
			break
		}
	}
	out := make(map[int64]float64, nv)
	for i, v := range vs {
		out[v.ID] = rank[i]
	}
	return out, iters, nil
}

// RefComponents is the reference weakly-connected components: sequential
// BFS over out+in adjacency from ascending-ID roots, labeling every vertex
// with the smallest identifier in its component. The second result counts
// BFS levels, mirroring ComponentsStats.Levels.
func RefComponents(done <-chan struct{}, g *Graph) (map[int64]int64, int, error) {
	comp := make(map[int64]int64, g.NumVertices())
	levels := 0
	var frontier, nextF []*Vertex
	var err error
	g.Vertices(func(r *Vertex) bool {
		if _, seen := comp[r.ID]; seen {
			return true
		}
		label := r.ID
		comp[r.ID] = label
		if len(r.Out)+len(r.In) == 0 {
			return true
		}
		frontier = append(frontier[:0], r)
		for len(frontier) > 0 {
			if stoppedCh(done) {
				err = ErrStopped
				return false
			}
			levels++
			nextF = nextF[:0]
			for _, v := range frontier {
				for _, e := range v.Out {
					if _, seen := comp[e.To.ID]; !seen {
						comp[e.To.ID] = label
						nextF = append(nextF, e.To)
					}
				}
				for _, e := range v.In {
					if _, seen := comp[e.From.ID]; !seen {
						comp[e.From.ID] = label
						nextF = append(nextF, e.From)
					}
				}
			}
			frontier, nextF = nextF, frontier
		}
		return true
	})
	if err != nil {
		return nil, levels, err
	}
	return comp, levels, nil
}

// RefLabelProp is the reference synchronous label propagation, keyed by
// vertex identifier.
func RefLabelProp(done <-chan struct{}, g *Graph, maxIters int) (map[int64]int64, int, error) {
	var vs []*Vertex
	g.Vertices(func(v *Vertex) bool { vs = append(vs, v); return true })
	lbl := make(map[int64]int64, len(vs))
	for _, v := range vs {
		lbl[v.ID] = v.ID
	}
	next := make(map[int64]int64, len(vs))
	var buf []int64
	iters := 0
	for it := 0; it < maxIters; it++ {
		if stoppedCh(done) {
			return nil, iters, ErrStopped
		}
		changed := false
		for _, v := range vs {
			buf = buf[:0]
			for _, e := range v.Out {
				buf = append(buf, lbl[e.To.ID])
			}
			for _, e := range v.In {
				buf = append(buf, lbl[e.From.ID])
			}
			nl := mostFrequentLabel(buf, lbl[v.ID])
			next[v.ID] = nl
			if nl != lbl[v.ID] {
				changed = true
			}
		}
		lbl, next = next, lbl
		iters = it + 1
		if !changed {
			break
		}
	}
	return lbl, iters, nil
}

// RefDegrees is the reference degree computation, keyed by vertex
// identifier, with FanOut/FanIn semantics.
func RefDegrees(g *Graph) (outDeg, inDeg map[int64]int64) {
	outDeg = make(map[int64]int64, g.NumVertices())
	inDeg = make(map[int64]int64, g.NumVertices())
	g.Vertices(func(v *Vertex) bool {
		outDeg[v.ID] = int64(g.FanOut(v))
		inDeg[v.ID] = int64(g.FanIn(v))
		return true
	})
	return outDeg, inDeg
}
