package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// This file owns every seeded input of the benchmark: the graph, the
// relational rows and the pseudo-random source behind each op stream. It
// imports nothing from the program, so a change to the program's own
// generators (internal/datagen, internal/bench) cannot move the load.

// prng is splitmix64: a fixed algorithm, so a seed gives the same inputs on
// every toolchain (math/rand's stream is not part of Go's compatibility
// promise for every constructor).
type prng struct{ s uint64 }

// newPRNG derives an independent stream per (seed, label), so adding draws
// to one generator never shifts another.
func newPRNG(seed uint64, label string) *prng {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seed)
	h.Write(b[:])
	h.Write([]byte(label))
	return &prng{s: h.Sum64()}
}

func (r *prng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every
// n the benchmark uses.
func (r *prng) intn(n int) int { return int(r.u64() % uint64(n)) }

// Graph shape shared by traverse.read and graph.churn.
const (
	graphV = 20_000
	graphE = 100_000
	// vertexGroups partitions vertices for the relational-outer join:
	// grp = id % vertexGroups, so one group holds graphV/vertexGroups
	// traversal sources.
	vertexGroups = 1000
	// maxWeight bounds the integer-valued edge weights; integers keep
	// shortest-path costs exact in float64 whatever the summation order.
	maxWeight = 20
)

// edgeRow is one row of the edge table: id is its index in graphData.edges.
type edgeRow struct {
	src, dst int32
	w        int32 // weight, 1..maxWeight
	sel      int32 // 0..99, the selectivity attribute the join pushes down
}

type graphData struct {
	nv    int
	edges []edgeRow
}

// genGraph builds a directed preferential-attachment multigraph: sources
// are uniform, and 70% of targets copy the target of an earlier edge, which
// makes in-degree heavy-tailed (hubs) while out-degree stays near E/V.
func genGraph(seed uint64, nv, ne int) *graphData {
	r := newPRNG(seed, "graph")
	g := &graphData{nv: nv, edges: make([]edgeRow, 0, ne)}
	for i := 0; i < ne; i++ {
		src := int32(r.intn(nv))
		var dst int32
		if i > 0 && r.intn(100) < 70 {
			dst = g.edges[r.intn(i)].dst
		} else {
			dst = int32(r.intn(nv))
		}
		if dst == src {
			dst = (src + 1) % int32(nv)
		}
		g.edges = append(g.edges, edgeRow{
			src: src, dst: dst,
			w:   int32(1 + r.intn(maxWeight)),
			sel: int32(r.intn(100)),
		})
	}
	return g
}

func vertexLabel(id int) string { return fmt.Sprintf("v%d", id) }

// payload is a deterministic printable value of n bytes derived from
// (key, version): the model can regenerate it, so the benchmark stores only
// versions.
func payload(key int64, version uint32, n int) string {
	b := make([]byte, n)
	s := uint64(key)*0x9e3779b97f4a7c15 ^ uint64(version)*0xc2b2ae3d27d4eb4f
	for i := range b {
		if i%8 == 0 {
			s = s*6364136223846793005 + 1442695040888963407
		}
		b[i] = 'a' + byte((s>>(uint(i%8)*8))&0xff)%26
	}
	return string(b)
}
