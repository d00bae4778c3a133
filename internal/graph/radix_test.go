package graph

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// TestRadixQueueOrder drives SPScan's queue with random monotone push/pop
// sequences, as the kernel does (every push is a popped cost plus a
// weight >= 0), and checks every pop against a reference kept sorted by
// (cost, node). After every operation each bucket must be node-ascending
// and hold only keys that belong in it. One queue serves every run, and
// some runs stop with entries still queued, so a reset that leaked an
// entry into the next run would pop it there.
func TestRadixQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	weights := []struct {
		name string
		w    func() float64
	}{
		// Runs of equal costs.
		{"ties", func() float64 { return float64(rng.Intn(3)) }},
		// Zero and -0 weights; a zero cost is pushed as -0 half the time.
		{"zeros", func() float64 {
			if rng.Intn(4) == 0 {
				return 1
			}
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		}},
		// +Inf weights: every cost past one is +Inf, a run of ties.
		{"inf", func() float64 {
			if rng.Intn(8) == 0 {
				return math.Inf(1)
			}
			return float64(rng.Intn(5))
		}},
		// Subnormal costs, from the first push at 0.
		{"subnormal", func() float64 {
			return math.SmallestNonzeroFloat64 * float64(rng.Intn(4))
		}},
		// Costs spanning many exponents, and weights too small to move
		// the cost they are added to.
		{"exponents", func() float64 {
			return math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)
		}},
	}

	type entry struct {
		cost float64
		node int32
	}
	byCostNode := func(a, b entry) int {
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	}
	var q radixQueue
	checkBuckets := func(run int) {
		t.Helper()
		var occupied uint64
		for i := range q.b {
			b := q.b[i]
			if i == 0 {
				b = b[q.head:]
			} else if len(b) > 0 {
				occupied |= 1 << i
			}
			for j, e := range b {
				if j > 0 && b[j-1].node >= e.node {
					t.Fatalf("run %d: bucket %d is not node-ascending: node %d before %d", run, i, b[j-1].node, e.node)
				}
				if got := bits.Len64(e.key ^ q.last); got != i {
					t.Fatalf("run %d: key %#x sits in bucket %d, belongs in %d", run, e.key, i, got)
				}
			}
		}
		if occupied != q.occupied&^1 {
			t.Fatalf("run %d: occupied mask %#x, buckets say %#x", run, q.occupied&^1, occupied)
		}
	}

	for run := 0; run < 300; run++ {
		kind := weights[run%len(weights)]
		q.reset()
		checkBuckets(run)
		var ref []entry
		var next int32
		add := func(cost float64) {
			if cost == 0 && rng.Intn(2) == 0 {
				cost = math.Copysign(0, -1)
			}
			e := entry{cost: cost, node: next}
			next++
			i, _ := slices.BinarySearchFunc(ref, e, byCostNode)
			ref = slices.Insert(ref, i, e)
			q.push(spQueueItem{key: spKey(cost), node: e.node, v: e.node % 7})
			checkBuckets(run)
		}
		add(0)
		// Every fourth run stops early, leaving entries for reset.
		limit := math.MaxInt
		if run%4 == 3 {
			limit = rng.Intn(50)
		}
		for pops := 0; len(ref) > 0 && pops < limit; pops++ {
			got, ok := q.pop()
			want := ref[0]
			ref = ref[1:]
			if !ok || got.node != want.node || got.key != spKey(want.cost) || got.v != want.node%7 {
				t.Fatalf("run %d (%s), pop %d: got %+v (ok %v), want node %d at cost %g",
					run, kind.name, pops, got, ok, want.node, want.cost)
			}
			checkBuckets(run)
			for range rng.Intn(4) {
				if next < 2000 {
					add(want.cost + kind.w())
				}
			}
		}
		if len(ref) == 0 {
			if got, ok := q.pop(); ok {
				t.Fatalf("run %d: drained queue popped %+v", run, got)
			}
		}
	}
}
