package expr

import (
	"fmt"
	"strings"

	"grfusion/internal/types"
)

// AggState accumulates one aggregate function over a stream of values. It
// is shared by the executor's hash-aggregate operator and by per-path
// aggregates (SUM(PS.Edges.W)). NULL inputs are skipped per SQL semantics;
// COUNT(*) is modeled by adding a non-null dummy value per row.
type AggState struct {
	name  string
	count int64
	sumI  int64
	sumF  float64
	isInt bool
	first bool
	best  types.Value // MIN/MAX running value

	distinct map[string]bool // non-nil for DISTINCT aggregates
}

// NewAggState creates an accumulator for the (upper-cased) aggregate name:
// COUNT, SUM, AVG, MIN or MAX.
func NewAggState(name string) *AggState {
	return &AggState{name: strings.ToUpper(name), isInt: true, first: true}
}

// NewDistinctAggState creates an accumulator that ignores duplicate inputs.
func NewDistinctAggState(name string) *AggState {
	s := NewAggState(name)
	s.distinct = make(map[string]bool)
	return s
}

// Add folds one value into the aggregate.
func (s *AggState) Add(v types.Value) error {
	if v.IsNull() {
		return nil
	}
	if s.distinct != nil {
		k := v.Key()
		if s.distinct[k] {
			return nil
		}
		s.distinct[k] = true
	}
	switch s.name {
	case "COUNT":
		s.count++
		return nil
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("%s on non-numeric value of kind %s", s.name, v.Kind)
		}
		s.count++
		if v.Kind == types.KindFloat {
			s.isInt = false
		}
		s.sumI += v.AsInt()
		s.sumF += v.AsFloat()
		return nil
	case "MIN":
		s.count++
		if s.first || types.Compare(v, s.best) < 0 {
			s.best = v
			s.first = false
		}
		return nil
	case "MAX":
		s.count++
		if s.first || types.Compare(v, s.best) > 0 {
			s.best = v
			s.first = false
		}
		return nil
	default:
		return fmt.Errorf("unknown aggregate %s", s.name)
	}
}

// AddFloats folds xs in order; it equals calling Add(types.NewFloat(x))
// for each x, down to the bits of every sum and the identity of every
// MIN/MAX (see addAll).
func (s *AggState) AddFloats(xs []float64) error { return addAll(s, xs, types.KindFloat) }

// AddInts folds xs in order; it equals calling Add(types.NewInt(x)) for
// each x (see addAll).
func (s *AggState) AddInts(xs []int64) error { return addAll(s, xs, types.KindInt) }

// addAll is AddFloats and AddInts; kind is T's value kind. It keeps Add's
// left-to-right sums: the integer sum truncates floats and wraps like
// Add's, the float sum that AVG divides widens ints, and a float sets
// the float result. MIN/MAX take the first value and then replace it only
// on a strict < or >, which is types.Compare on two values of one kind, so
// a NaN never replaces a running value but is kept when it comes first.
// A DISTINCT state, or a MIN/MAX whose running value has the other kind
// (compared widened), takes Add value by value.
func addAll[T int64 | float64](s *AggState, xs []T, kind types.Kind) error {
	if s.distinct != nil || len(xs) == 0 {
		return addEach(s, xs, kind)
	}
	switch s.name {
	case "COUNT":
		s.count += int64(len(xs))
	case "SUM", "AVG":
		s.count += int64(len(xs))
		if kind == types.KindFloat {
			s.isInt = false
		}
		sumI, sumF := s.sumI, s.sumF
		for _, x := range xs {
			sumI += int64(x)
			sumF += float64(x)
		}
		s.sumI, s.sumF = sumI, sumF
	case "MIN", "MAX":
		if s.first {
			s.best, s.first = valueOf(xs[0], kind), false
			s.count++
			xs = xs[1:]
		}
		if s.best.Kind != kind {
			return addEach(s, xs, kind)
		}
		s.count += int64(len(xs))
		b := T(s.best.I)
		if kind == types.KindFloat {
			b = T(s.best.F)
		}
		if s.name == "MIN" {
			for _, x := range xs {
				if x < b {
					b = x
				}
			}
		} else {
			for _, x := range xs {
				if x > b {
					b = x
				}
			}
		}
		s.best = valueOf(b, kind)
	default:
		return fmt.Errorf("unknown aggregate %s", s.name)
	}
	return nil
}

// addEach adds xs to s one Add at a time.
func addEach[T int64 | float64](s *AggState, xs []T, kind types.Kind) error {
	for _, x := range xs {
		if err := s.Add(valueOf(x, kind)); err != nil {
			return err
		}
	}
	return nil
}

// valueOf boxes x as a value of kind.
func valueOf[T int64 | float64](x T, kind types.Kind) types.Value {
	if kind == types.KindFloat {
		return types.NewFloat(float64(x))
	}
	return types.NewInt(int64(x))
}

// Result returns the aggregate value. Empty SUM/AVG/MIN/MAX are NULL;
// empty COUNT is 0.
func (s *AggState) Result() types.Value {
	switch s.name {
	case "COUNT":
		return types.NewInt(s.count)
	case "SUM":
		if s.count == 0 {
			return types.Null()
		}
		if s.isInt {
			return types.NewInt(s.sumI)
		}
		return types.NewFloat(s.sumF)
	case "AVG":
		if s.count == 0 {
			return types.Null()
		}
		return types.NewFloat(s.sumF / float64(s.count))
	default:
		if s.first {
			return types.Null()
		}
		return s.best
	}
}
