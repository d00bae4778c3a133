package main

import (
	"container/heap"
	"math"
)

// This file is the pure-Go reference every reply is checked against. It
// shares no code with the program: plain adjacency slices, textbook BFS,
// Dijkstra and PageRank.

// refGraph is a mutable directed multigraph keyed by the edge table's ids.
// Deleted edges keep their slot (alive=false) so ids stay stable.
type refGraph struct {
	nv    int
	edges []edgeRow
	alive []bool
	out   [][]int32 // vertex -> ids of its live out-edges, any order
	live  int

	// BFS scratch: seen[v]==epoch marks v visited in the current traversal.
	seen  []uint32
	epoch uint32
	queue []int32
}

func newRefGraph(g *graphData) *refGraph {
	r := &refGraph{nv: g.nv, out: make([][]int32, g.nv), seen: make([]uint32, g.nv)}
	r.edges = make([]edgeRow, 0, len(g.edges)+1024)
	for _, e := range g.edges {
		r.addEdge(e)
	}
	return r
}

// addEdge appends e and returns its id.
func (r *refGraph) addEdge(e edgeRow) int {
	id := len(r.edges)
	r.edges = append(r.edges, e)
	r.alive = append(r.alive, true)
	r.out[e.src] = append(r.out[e.src], int32(id))
	r.live++
	return id
}

func (r *refGraph) removeEdge(id int) {
	if !r.alive[id] {
		return
	}
	r.alive[id] = false
	r.live--
	l := r.out[r.edges[id].src]
	for i, x := range l {
		if int(x) == id {
			l[i] = l[len(l)-1]
			r.out[r.edges[id].src] = l[:len(l)-1]
			return
		}
	}
}

// within counts the vertices other than src whose hop distance from src is
// at most maxLen, following only edges with sel < selBelow. It is the
// answer of COUNT(*) over a visit-once breadth-first PathScan, whose paths
// are the breadth-first tree's: one per reached vertex.
func (r *refGraph) within(src int32, maxLen int, selBelow int32) int {
	r.epoch++
	r.seen[src] = r.epoch
	r.queue = append(r.queue[:0], src)
	count := 0
	for depth, head := 0, 0; depth < maxLen && head < len(r.queue); depth++ {
		levelEnd := len(r.queue)
		for ; head < levelEnd; head++ {
			for _, id := range r.out[r.queue[head]] {
				e := &r.edges[id]
				if e.sel >= selBelow || r.seen[e.dst] == r.epoch {
					continue
				}
				r.seen[e.dst] = r.epoch
				r.queue = append(r.queue, e.dst)
				count++
			}
		}
	}
	return count
}

// hops returns every vertex's hop distance from src (-1 = unreachable).
func (r *refGraph) hops(src int32) []int32 {
	dist := make([]int32, r.nv)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []int32{src}
	for head := 0; head < len(q); head++ {
		v := q[head]
		for _, id := range r.out[v] {
			if d := r.edges[id].dst; dist[d] < 0 {
				dist[d] = dist[v] + 1
				q = append(q, d)
			}
		}
	}
	return dist
}

type costItem struct {
	v    int32
	cost int64
}
type costHeap []costItem

func (h costHeap) Len() int               { return len(h) }
func (h costHeap) Less(i, j int) bool     { return h[i].cost < h[j].cost }
func (h costHeap) Swap(i, j int)          { h[i], h[j] = h[j], h[i] }
func (h *costHeap) Push(x any)            { *h = append(*h, x.(costItem)) }
func (h *costHeap) Pop() any              { o := *h; x := o[len(o)-1]; *h = o[:len(o)-1]; return x }
func (r *refGraph) weight(id int32) int64 { return int64(r.edges[id].w) }

// cheapest returns every vertex's least total weight from src (-1 =
// unreachable): Dijkstra over the integer weights.
func (r *refGraph) cheapest(src int32) []int64 {
	cost := make([]int64, r.nv)
	for i := range cost {
		cost[i] = -1
	}
	h := &costHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(costItem)
		if cost[it.v] >= 0 {
			continue
		}
		cost[it.v] = it.cost
		for _, id := range r.out[it.v] {
			if d := r.edges[id].dst; cost[d] < 0 {
				heap.Push(h, costItem{d, it.cost + r.weight(id)})
			}
		}
	}
	return cost
}

// pageRankMax runs synchronous PageRank with dangling mass spread evenly
// (the definition the PAGERANK table function documents), stopping after
// iters iterations or when the L1 change is at most eps, and returns the
// largest rank.
func (r *refGraph) pageRankMax(damping float64, iters int, eps float64) float64 {
	n := float64(r.nv)
	rank := make([]float64, r.nv)
	next := make([]float64, r.nv)
	for i := range rank {
		rank[i] = 1 / n
	}
	for it := 0; it < iters; it++ {
		dangling := 0.0
		for v := range r.out {
			if len(r.out[v]) == 0 {
				dangling += rank[v]
			}
		}
		base := (1-damping)/n + damping*dangling/n
		for i := range next {
			next[i] = 0
		}
		for v := range r.out {
			if deg := len(r.out[v]); deg > 0 {
				share := rank[v] / float64(deg)
				for _, id := range r.out[v] {
					next[r.edges[id].dst] += share
				}
			}
		}
		delta := 0.0
		for i := range next {
			next[i] = base + damping*next[i]
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta <= eps {
			break
		}
	}
	max := 0.0
	for _, x := range rank {
		if x > max {
			max = x
		}
	}
	return max
}

// validPath reports whether the vertex/edge id sequence is a live path of
// the graph from src to dst: verts[i] -edges[i]-> verts[i+1].
func (r *refGraph) validPath(verts, edges []int64, src, dst int32) bool {
	if len(verts) != len(edges)+1 || len(edges) == 0 ||
		verts[0] != int64(src) || verts[len(verts)-1] != int64(dst) {
		return false
	}
	for i, id := range edges {
		if id < 0 || id >= int64(len(r.edges)) || !r.alive[id] {
			return false
		}
		e := r.edges[id]
		if int64(e.src) != verts[i] || int64(e.dst) != verts[i+1] {
			return false
		}
	}
	return true
}
