package expr

import (
	"math"
	"math/rand"
	"testing"

	"grfusion/internal/types"
)

// TestAggStateTypedFolds: AddFloats and AddInts equal a loop of Add over
// the same values, state and result down to the bit. Each trial folds a
// random slice, split into random runs (so "first" crosses calls), drawn
// from NaN, ±Inf, -0, subnormals, MinInt64/MaxInt64 and sums that
// overflow; empty slices and states that saw the other kind first (whose
// MIN/MAX compare widened) are included.
func TestAggStateTypedFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 1e300, 9.3e18, -9.3e18}
	ints := []int64{math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, -1, 0, 1, 2, 1 << 53, (1 << 53) + 1}
	randFloat := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * math.Ldexp(1, rng.Intn(64)-32)
		}
		return floats[rng.Intn(len(floats))]
	}
	randInt := func() int64 {
		if rng.Intn(3) == 0 {
			return rng.Int63() - rng.Int63()
		}
		return ints[rng.Intn(len(ints))]
	}
	// runs splits n values into random consecutive runs, empty ones too.
	runs := func(n int) [][2]int {
		var out [][2]int
		for lo := 0; lo <= n; {
			hi := lo + rng.Intn(n-lo+2)
			if hi > n {
				hi = n
			}
			out = append(out, [2]int{lo, hi})
			if hi == n {
				break
			}
			lo = hi
		}
		return out
	}

	for _, name := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		for trial := 0; trial < 2000; trial++ {
			distinct := trial%50 == 0
			newState := func() *AggState {
				if distinct {
					return NewDistinctAggState(name)
				}
				return NewAggState(name)
			}
			typed, loop := newState(), newState()
			// A prefix of the other kind, on a quarter of the trials.
			prefixInts := rng.Intn(2) == 0
			if rng.Intn(4) == 0 {
				for i := rng.Intn(3); i >= 0; i-- {
					v := types.NewFloat(randFloat())
					if prefixInts {
						v = types.NewInt(randInt())
					}
					if typed.Add(v) != nil || loop.Add(v) != nil {
						t.Fatal("Add failed on a numeric value")
					}
				}
			}
			n := rng.Intn(12)
			if prefixInts { // then floats
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = randFloat()
				}
				for _, r := range runs(n) {
					if err := typed.AddFloats(xs[r[0]:r[1]]); err != nil {
						t.Fatal(err)
					}
				}
				for _, x := range xs {
					if err := loop.Add(types.NewFloat(x)); err != nil {
						t.Fatal(err)
					}
				}
				checkSameState(t, name+" floats", xs, typed, loop)
				continue
			}
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = randInt()
			}
			for _, r := range runs(n) {
				if err := typed.AddInts(xs[r[0]:r[1]]); err != nil {
					t.Fatal(err)
				}
			}
			for _, x := range xs {
				if err := loop.Add(types.NewInt(x)); err != nil {
					t.Fatal(err)
				}
			}
			checkSameState(t, name+" ints", xs, typed, loop)
		}
	}
}

// checkSameState fails unless a and b hold the same state and result, with
// floats compared by their bits; a sum may differ only in a NaN's payload.
func checkSameState(t *testing.T, what string, xs any, a, b *AggState) {
	t.Helper()
	ra, rb := a.Result(), b.Result()
	sumResult := a.name == "SUM" || a.name == "AVG"
	same := a.name == b.name && a.count == b.count && a.sumI == b.sumI && sameSum(a.sumF, b.sumF) &&
		a.isInt == b.isInt && a.first == b.first && sameBits(a.best, b.best) &&
		len(a.distinct) == len(b.distinct) &&
		(sameBits(ra, rb) || sumResult && ra.Kind == rb.Kind && sameSum(ra.F, rb.F))
	if !same {
		t.Fatalf("%s over %v: typed fold %+v (result %v), Add loop %+v (result %v)",
			what, xs, *a, ra, *b, rb)
	}
}

// sameBits reports whether two values have the same kind and bits.
func sameBits(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameSum reports whether two sums have the same bits or are both NaN. Go
// leaves open which NaN payload an addition of NaNs (or Inf + -Inf)
// returns, and the compiler may swap a commutative add's operands, so two
// equal summation loops can differ in a NaN's payload and nothing else. A
// MIN/MAX copies its values, so a NaN there is compared by its bits.
func sameSum(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
}
