package graph

// This file implements the whole-graph analytics kernels behind the
// GV.PAGERANK / GV.CONNECTED_COMPONENTS / GV.LABEL_PROPAGATION /
// GV.DEGREE_CENTRALITY table-valued functions: vertex-centric algorithms
// over a CSR version's flat arrays, the workload GraphGen runs
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
// references below over a version's materialization (CSR.Graph), because
// both walk the canonical adjacency order csr.go defines.
//
// A version with a delta numbers its vertexes densely out of identifier
// order (delta vertexes come last) with tombstoned holes: the kernels keep
// per-vertex state by dense index, skip dead vertexes, reduce and emit in
// identifier order (analyticsScratch.order), and read a touched vertex's
// arcs through the delta; untouched vertexes keep the main's tight loops.
//
// Cancellation threads through like every other kernel: the done channel
// is polled between chunks and levels, and a halted run returns ErrStopped
// for the executor to map to its typed cause.

import (
	"math"
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
// partial counters, per-worker neighbor buffers, and the result order. One
// scratch serves one run at a time; Release returns it to the main's pool,
// so steady-state analytics allocate nothing.
type analyticsScratch struct {
	rank, rank2 []float64
	lbl, lbl2   []int64
	deg         []int32   // PageRank degree per dense vertex
	contrib     []float64 // PageRank rank/degree per dense vertex, per iteration
	dangling    []int32   // PageRank's zero-degree vertexes in identifier order

	visited, cur, next []uint32 // bitmaps, one bit per dense vertex

	cnt1, cnt2 []int64 // per-chunk integer partials

	nbufs [][]int64 // per-worker label multiset buffers
	abufs []arcBuf  // per-worker arcs of touched vertexes

	// Kernel state is indexed by dense vertex, which a version with a
	// delta numbers out of identifier order and with tombstoned holes.
	// order then lists the live vertexes in ascending identifier order
	// (the results' row order and every float reduction's order) and
	// outF/outI hold the results compacted into it; ordered is false when
	// the dense numbering is that order already (no delta).
	ordered bool
	order   []int32
	outF    []float64
	outI    []int64

	// Preallocated chunk runners: runChunks takes an interface instead of
	// a closure so a steady-state run performs zero allocations (a closure
	// literal plus its captures would escape on every call).
	pr prRun
	td wccTopDown
	bu wccBottomUp
	lp lpRun
}

// Analytics is a handle on one pooled analytics run over a version. The
// slices returned by its kernels live in the pooled scratch: they stay
// valid until Release, after which the pool may hand the memory to the
// next run. Results are indexed by position in ascending vertex
// identifier order (see VertexID).
type Analytics struct {
	c *CSR
	s *analyticsScratch
}

// NewAnalytics takes an analytics scratch from the main's pool. The
// returned handle is a value so steady-state runs allocate nothing.
func (c *CSR) NewAnalytics() Analytics {
	s := c.m.apool.Get().(*analyticsScratch)
	s.ordered = c.n != 0
	if s.ordered {
		s.order = c.liveVertices(s.order[:0])
	}
	return Analytics{c: c, s: s}
}

// Release returns the scratch to the pool, invalidating every slice the
// handle's kernels returned.
func (a Analytics) Release() { a.c.m.apool.Put(a.s) }

// VertexID maps a result position to the vertex identifier.
func (a Analytics) VertexID(i int) int64 { return a.c.vertexID(a.s.at(i)) }

// VertexIDs returns every vertex identifier in result order. Without a
// delta it is the main's own identifier array, shared and read-only;
// otherwise a fresh slice.
func (a Analytics) VertexIDs() []int64 {
	if !a.s.ordered {
		return a.c.m.vids[:a.c.nv:a.c.nv]
	}
	ids := make([]int64, len(a.s.order))
	for p, v := range a.s.order {
		ids[p] = a.c.vertexID(v)
	}
	return ids
}

// MemoFn names the analytics functions a version memoizes: the iterative
// ones. DEGREE_CENTRALITY is O(V) and has no slot.
type MemoFn uint8

// The memoized functions.
const (
	MemoPageRank MemoFn = iota
	MemoComponents
	MemoLabelProp
	numMemoFns
)

// MemoKey identifies one memoizable analytics call on a version: the
// function and every argument its result depends on. The worker count is
// not one of them, since the kernels are bit-identical at any worker count,
// nor is PAGERANK's early-stop threshold, which the SQL surface fixes.
type MemoKey struct {
	Fn      MemoFn
	Damping float64 // PAGERANK
	Iters   int     // PAGERANK iterations, LABEL_PROPAGATION maxIters
}

// AnalyticsResult is a kernel's output detached from the pooled scratch,
// in result order, so it can outlive Release and be memoized. Its slices
// are read-only.
type AnalyticsResult struct {
	Key   MemoKey
	IDs   []int64   // vertex identifiers
	Ranks []float64 // PAGERANK
	Ints  []int64   // component or label
	Iters int       // kernel iterations (BFS levels for components)
	Stats ComponentsStats
}

// Memo returns the result memoized on this version for key, or nil. A
// version never changes, so the result stays right for as long as the
// version lives, and it dies with the version.
func (c *CSR) Memo(key MemoKey) *AnalyticsResult {
	if r := c.memo[key.Fn].Load(); r != nil && r.Key == key {
		return r
	}
	return nil
}

// SetMemo memoizes r on this version under r.Key, replacing whatever the
// function's slot held. Concurrent setters may race; every result for a
// key is the same, so whichever store lands is correct.
func (c *CSR) SetMemo(r *AnalyticsResult) { c.memo[r.Key.Fn].Store(r) }

// at returns the dense index of the vertex at result position p.
func (s *analyticsScratch) at(p int) int32 {
	if s.ordered {
		return s.order[p]
	}
	return int32(p)
}

// compactF/compactI lay a dense result out in result order.
func (s *analyticsScratch) compactF(dense []float64, nv int) []float64 {
	if !s.ordered {
		return dense
	}
	s.outF = sizeF64(s.outF, nv)
	for p := range s.outF {
		s.outF[p] = dense[s.order[p]]
	}
	return s.outF
}

func (s *analyticsScratch) compactI(dense []int64, nv int) []int64 {
	if !s.ordered {
		return dense
	}
	s.outI = sizeI64(s.outI, nv)
	for p := range s.outI {
		s.outI[p] = dense[s.order[p]]
	}
	return s.outI
}

// workerBufs sizes the per-worker arc buffers.
func (s *analyticsScratch) workerBufs(workers int) {
	if n := max(workers, 1); len(s.abufs) < n {
		s.abufs = append(s.abufs, make([]arcBuf, n-len(s.abufs))...)
	}
}

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
// allocation — the zero-alloc configuration TestAnalyticsZeroAlloc pins.
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
func (c *view) prDegree(v int32) int32 {
	m := c.m
	if c.clean(v) {
		if m.directed {
			return m.outOff[v+1] - m.outOff[v]
		}
		return m.adjOff[v+1] - m.adjOff[v]
	}
	n := c.countArcs(v, false, false)
	if !m.directed {
		n += c.countArcs(v, true, true)
	}
	return n
}

// prArcs returns the neighbors v pulls rank from: its in arcs for directed
// graphs, its traversal view for undirected ones.
func (c *view) prArcs(v int32, b *arcBuf) []int32 {
	m := c.m
	if c.clean(v) {
		if m.directed {
			return m.inAdj[m.inOff[v]:m.inOff[v+1]]
		}
		return m.adjTo[m.adjOff[v]:m.adjOff[v+1]]
	}
	b.reset()
	if m.directed {
		c.appendArcs(b, v, true, false)
	} else {
		c.appendArcs(b, v, false, false)
		c.appendArcs(b, v, true, true)
	}
	return b.to
}

// prRun is the parallel pull phase of one PageRank iteration.
type prRun struct {
	c       *CSR
	s       *analyticsScratch
	rank2   []float64
	base    float64
	damping float64
}

func (r *prRun) runChunk(worker, lo, hi int) {
	c, contrib, rank2 := r.c, r.s.contrib, r.rank2
	b := &r.s.abufs[worker]
	off, adj := c.m.inOff, c.m.inAdj
	if !c.m.directed {
		off, adj = c.m.adjOff, c.m.adjTo
	}
	for v := int32(lo); v < int32(hi); v++ {
		var nbrs []int32
		switch { // the main-only case inline: this loop is the kernel
		case c.n == 0:
			nbrs = adj[off[v]:off[v+1]]
		case c.deadV(v):
			rank2[v] = 0
			continue
		default:
			nbrs = c.prArcs(v, b)
		}
		sum := 0.0
		for _, u := range nbrs {
			sum += contrib[u]
		}
		rank2[v] = r.base + r.damping*sum
	}
}

// PageRank runs synchronous pull-based PageRank with dangling-mass
// redistribution: maxIters iterations, stopping early when the L1 delta
// between iterations drops to eps or below (eps <= 0 disables the early
// stop). It returns the per-vertex ranks (in result order, valid until
// Release) and the number of iterations actually run.
func (a Analytics) PageRank(done <-chan struct{}, workers int, damping float64, maxIters int, eps float64) ([]float64, int, error) {
	c, s := a.c, a.s
	nv, n := c.nv, c.denseV()
	if nv == 0 {
		return nil, 0, nil
	}
	s.workerBufs(workers)
	s.rank = sizeF64(s.rank, n)
	s.rank2 = sizeF64(s.rank2, n)
	s.deg = sizeI32(s.deg, n)
	s.contrib = sizeF64(s.contrib, n)
	rank, rank2, deg, contrib := s.rank, s.rank2, s.deg, s.contrib
	init := 1 / float64(nv)
	for v := int32(0); v < int32(n); v++ {
		rank[v], deg[v], contrib[v] = init, c.prDegree(v), 0
		if c.deadV(v) {
			rank[v] = 0
		}
	}
	// The zero-degree vertexes in identifier order: the dangling mass is a
	// floating-point reduction, so its summation order must not depend on
	// chunking, workers or the dense numbering.
	s.dangling = s.dangling[:0]
	for p := 0; p < nv; p++ {
		if v := s.at(p); deg[v] == 0 {
			s.dangling = append(s.dangling, v)
		}
	}
	nf := float64(nv)
	iters := 0
	for it := 0; it < maxIters; it++ {
		if stoppedCh(done) {
			return nil, iters, ErrStopped
		}
		dangling := 0.0
		for _, v := range s.dangling {
			dangling += rank[v]
		}
		// Each vertex's share, once per iteration rather than once per
		// arc; zero-degree vertexes are nobody's neighbor and keep 0.
		for v, d := range deg {
			if d != 0 {
				contrib[v] = rank[v] / float64(d)
			}
		}
		s.pr = prRun{c: c, s: s, rank2: rank2,
			base: (1-damping)/nf + damping*dangling/nf, damping: damping}
		err := runChunks(done, workers, n, &s.pr)
		if err != nil {
			return nil, iters, err
		}
		// Sequential convergence delta in identifier order, same reasoning.
		delta := 0.0
		for p := 0; p < nv; p++ {
			v := s.at(p)
			delta += math.Abs(rank2[v] - rank[v])
		}
		rank, rank2 = rank2, rank
		iters = it + 1
		if eps > 0 && delta <= eps {
			break
		}
	}
	s.rank, s.rank2 = rank, rank2
	return s.compactF(rank, nv), iters, nil
}

// wccDegree is the undirected degree Components uses for its direction
// heuristic: out + in, i.e. every incident edge arc.
func (c *view) wccDegree(v int32) int64 {
	return int64(c.degree(v, false) + c.degree(v, true))
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

func (r *wccTopDown) runChunk(worker, lo, hi int) {
	c := r.c
	b := &r.s.abufs[worker]
	ci := lo / analyticsChunk
	var nV, nE int64
	claim := func(nbrs []int32) {
		for _, u := range nbrs {
			if claimBit(r.visited, u) {
				r.comp[u] = r.label
				orBit(r.next, u)
				nV++
				nE += c.wccDegree(u)
			}
		}
	}
	for w := lo >> 5; w < (hi+31)>>5; w++ {
		bm := r.cur[w]
		for bm != 0 {
			v := int32(w<<5) + int32(bits.TrailingZeros32(bm))
			bm &= bm - 1
			first, second := c.bothArcs(v, b)
			claim(first)
			claim(second)
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

func (r *wccBottomUp) runChunk(worker, lo, hi int) {
	c := r.c
	b := &r.s.abufs[worker]
	ci := lo / analyticsChunk
	var nV, nE int64
	inFrontier := func(nbrs []int32) bool {
		for _, u := range nbrs {
			if testBit(r.cur, u) {
				return true
			}
		}
		return false
	}
	for v := int32(lo); v < int32(hi); v++ {
		if testBit(r.visited, v) {
			continue
		}
		if first, second := c.bothArcs(v, b); inFrontier(first) || inFrontier(second) {
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
// heuristic. The labels slice is in result order and valid until Release.
func (a Analytics) Components(done <-chan struct{}, workers int) ([]int64, ComponentsStats, error) {
	c, s := a.c, a.s
	nv, n := c.nv, c.denseV()
	var stats ComponentsStats
	if nv == 0 {
		return nil, stats, nil
	}
	s.workerBufs(workers)
	s.lbl = sizeI64(s.lbl, n)
	comp := s.lbl
	nwords := (n + 31) / 32
	s.visited = sizeU32(s.visited, nwords)
	s.cur = sizeU32(s.cur, nwords)
	s.next = sizeU32(s.next, nwords)
	visited, cur, next := s.visited, s.cur, s.next
	zeroU32(visited)
	if s.ordered {
		for v := int32(0); v < int32(n); v++ {
			if c.deadV(v) {
				setBit(visited, v) // never a root, never claimed
			}
		}
	}
	nchunks := numChunks(n)
	s.cnt1 = sizeI64(s.cnt1, nchunks)
	s.cnt2 = sizeI64(s.cnt2, nchunks)

	// remaining counts the edge arcs incident to still-unvisited vertexes,
	// the denominator of the top-down → bottom-up switch: one out and one
	// in arc per live edge.
	remaining := 2 * int64(c.ne)

	// Roots in identifier order, so each component's first root is its
	// smallest identifier.
	for p := 0; p < nv; p++ {
		r := s.at(p)
		if testBit(visited, r) {
			continue
		}
		stats.Components++
		label := c.vertexID(r)
		setBit(visited, r)
		comp[r] = label
		deg := c.wccDegree(r)
		remaining -= deg
		if deg == 0 {
			continue // isolated vertex: no BFS to run
		}
		zeroU32(cur)
		setBit(cur, r)
		frontV, frontE := int64(1), deg
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
				err = runChunks(done, workers, n, &s.td)
			} else {
				stats.BottomUp++
				s.bu = wccBottomUp{c: c, s: s, cur: cur, next: next,
					visited: visited, comp: comp, label: label}
				err = runChunks(done, workers, n, &s.bu)
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
	return s.compactI(comp, nv), stats, nil
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
	buf, b := r.s.nbufs[worker], &r.s.abufs[worker]
	var changed int64
	for v := int32(lo); v < int32(hi); v++ {
		if c.deadV(v) {
			r.lbl2[v] = r.lbl[v]
			continue
		}
		first, second := c.bothArcs(v, b)
		buf = buf[:0]
		for _, u := range first {
			buf = append(buf, r.lbl[u])
		}
		for _, u := range second {
			buf = append(buf, r.lbl[u])
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
// labels slice is in result order and valid until Release.
func (a Analytics) LabelProp(done <-chan struct{}, workers, maxIters int) ([]int64, int, error) {
	c, s := a.c, a.s
	nv, n := c.nv, c.denseV()
	if nv == 0 {
		return nil, 0, nil
	}
	s.workerBufs(workers)
	s.lbl = sizeI64(s.lbl, n)
	s.lbl2 = sizeI64(s.lbl2, n)
	lbl, lbl2 := s.lbl, s.lbl2
	copy(lbl, c.m.vids)
	for v := len(c.m.vids); v < n; v++ {
		lbl[v] = c.vertexID(int32(v))
	}
	nchunks := numChunks(n)
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
		err := runChunks(done, workers, n, &s.lp)
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
	return s.compactI(lbl, nv), iters, nil
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
// the full incident degree for undirected ones. The slices are in result
// order and valid until Release.
func (a Analytics) Degrees() (outDeg, inDeg []int64) {
	c, s := a.c, a.s
	nv := c.nv
	s.lbl = sizeI64(s.lbl, nv)
	s.lbl2 = sizeI64(s.lbl2, nv)
	outDeg, inDeg = s.lbl, s.lbl2
	m := c.m
	for p := 0; p < nv; p++ {
		var o, i int64
		if v := int32(p); !s.ordered { // the main alone: read its offsets
			o, i = int64(m.outOff[v+1]-m.outOff[v]), int64(m.inOff[v+1]-m.inOff[v])
		} else {
			v = s.order[p]
			o, i = int64(c.degree(v, false)), int64(c.degree(v, true))
		}
		if m.directed {
			outDeg[p], inDeg[p] = o, i
		} else {
			outDeg[p], inDeg[p] = o+i, o+i
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
