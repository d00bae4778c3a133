package graph

// This file implements typed attribute columns and the predicates the
// kernels evaluate over them (DESIGN §6 note 10).
//
// A Column copies one attribute of a version's edges or vertexes out of
// its relational source into a position-aligned array the kernels index
// with the positions they already hold: an edge column by traversal arc
// or edge index (EdgeColumn), a vertex column by dense vertex index. A
// validity bit per entry marks the entries that hold the attribute's
// value; every other entry (a NULL, a value of another kind, a dangling
// tuple pointer) is answered by the caller's closure, so a column changes
// how fast an answer comes, never what it is. Pred is a pushed attr op
// constant compiled against a column; Spec.EdgePreds and
// Spec.VertexPreds carry them to the kernels, which test them inline
// before they ask a filter closure.

// ColKind is the type of a column's entries.
type ColKind uint8

// Column kinds.
const (
	// ColInt holds int64 values (BIGINT).
	ColInt ColKind = iota
	// ColFloat holds float64 values (DOUBLE).
	ColFloat
)

// Entry is one value read into a column: I for ColInt, F for ColFloat.
// OK is false for a value the column cannot hold.
type Entry struct {
	I  int64
	F  float64
	OK bool
}

// Column is one attribute of a version's edges or vertexes, laid out for
// the kernels. It is immutable once built.
type Column struct {
	kind   ColKind
	ints   []int64   // ColInt entries
	floats []float64 // ColFloat entries
	valid  []uint64  // bit i set: entry i holds the attribute's value
}

// newColumn lays out n entries read by at(i).
func newColumn(kind ColKind, n int, at func(i int) Entry) *Column {
	col := &Column{kind: kind, valid: make([]uint64, (n+63)/64)}
	if kind == ColFloat {
		col.floats = make([]float64, n)
	} else {
		col.ints = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		e := at(i)
		if !e.OK {
			continue
		}
		col.valid[i/64] |= 1 << (uint(i) % 64)
		if kind == ColFloat {
			col.floats[i] = e.F
		} else {
			col.ints[i] = e.I
		}
	}
	return col
}

// EdgeColumn lays out a column of kind over the version's edges, read
// from each edge record by read; the result is what Spec.Weights and a
// Pred over edges expect. A version without a delta holds one entry per
// traversal arc of its main, in adjacency order (adjEdge), so a kernel
// reads a vertex's entries as one run; an undirected main lists each
// non-loop edge from both ends, so its column holds about twice as many
// entries as it has edges. A version with a delta holds one entry per
// edge index: its main's edges, then the delta edges it sees, tombstoned
// ones included.
func (c *view) EdgeColumn(kind ColKind, read func(*Edge) Entry) *Column {
	if c.n == 0 {
		return newColumn(kind, len(c.m.adjEdge), func(i int) Entry { return read(c.m.edges[c.m.adjEdge[i]]) })
	}
	return newColumn(kind, len(c.m.edges)+len(c.dedges), func(i int) Entry { return read(c.edge(int32(i))) })
}

// VertexColumn lays out a column of kind over the version's vertexes, one
// entry per dense vertex index (main vertexes, then the delta vertexes the
// version sees), read from each vertex record by read.
func (c *view) VertexColumn(kind ColKind, read func(*Vertex) Entry) *Column {
	return newColumn(kind, c.denseV(), func(i int) Entry { return read(c.vert(int32(i))) })
}

// arcSlot is the position of the arc ai of vertex v, edge ei, in an edge
// column of the version (see EdgeColumn).
func (c *view) arcSlot(v, ai, ei int32) int32 {
	if c.n == 0 {
		return c.m.adjOff[v] + ai
	}
	return ei
}

func (col *Column) has(i int32) bool { return col.valid[i/64]&(1<<(uint(i)%64)) != 0 }

// Float returns entry i of a numeric column as a float64, widening an
// int64 as types.Value.AsFloat does. ok is false for a nil column or an
// entry the column does not hold.
func (col *Column) Float(i int32) (w float64, ok bool) {
	if col == nil || !col.has(i) {
		return 0, false
	}
	if col.kind == ColFloat {
		return col.floats[i], true
	}
	return float64(col.ints[i]), true
}

// Len returns the number of entries.
func (col *Column) Len() int { return len(col.ints) + len(col.floats) }

// PredOp is the test a Pred applies to an entry.
type PredOp uint8

// Predicate tests: entry op bound, or entry [NOT] IN set.
const (
	PredEq PredOp = iota
	PredNe
	PredLt
	PredLe
	PredGt
	PredGe
	PredIn
	PredNotIn
)

// Pred is one pushed filter over a path's edges or vertexes. With a
// column it is that filter compiled to a typed test: it holds at path
// position pos when Lo <= pos and (Hi < 0 or pos <= Hi), and it compares
// against I/Set on a ColInt column, against F/FSet on a ColFloat one. A
// Pred with no column stands for a filter the closure alone evaluates.
type Pred struct {
	Lo, Hi int
	Col    *Column
	Op     PredOp
	I      int64
	F      float64
	Set    []int64
	FSet   []float64
}

// covers reports whether the predicate applies at path position pos.
func (p *Pred) covers(pos int) bool { return pos >= p.Lo && (p.Hi < 0 || pos <= p.Hi) }

// test evaluates the predicate on entry i, which the column holds.
// Floats compare as types.Compare does, NaN included (unordered values
// compare equal), so a typed test answers what the closure would.
func (p *Pred) test(i int32) bool {
	var c int
	if p.Col.kind == ColFloat {
		x := p.Col.floats[i]
		switch p.Op {
		case PredIn, PredNotIn:
			hit := false
			for _, f := range p.FSet {
				if cmpFloat(x, f) == 0 {
					hit = true
					break
				}
			}
			return hit != (p.Op == PredNotIn)
		}
		c = cmpFloat(x, p.F)
	} else {
		x := p.Col.ints[i]
		switch p.Op {
		case PredIn, PredNotIn:
			hit := false
			for _, v := range p.Set {
				if x == v {
					hit = true
					break
				}
			}
			return hit != (p.Op == PredNotIn)
		}
		switch {
		case x < p.I:
			c = -1
		case x > p.I:
			c = 1
		}
	}
	switch p.Op {
	case PredEq:
		return c == 0
	case PredNe:
		return c != 0
	case PredLt:
		return c < 0
	case PredLe:
		return c <= 0
	case PredGt:
		return c > 0
	default:
		return c >= 0
	}
}

// cmpFloat orders two floats as types.Compare does: unordered pairs (a
// NaN on either side) compare equal.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// verdict is what a kernel's typed check concludes for one element.
type verdict uint8

const (
	verdictPass verdict = iota // every covering predicate holds
	verdictFail                // a covering predicate fails on its column
	verdictAsk                 // the closure must answer
)

// testPreds checks the predicates covering path position pos against
// entry i of their columns. A predicate that fails decides the element;
// one with no column, or whose column does not hold entry i, leaves it to
// the closure, which evaluates every filter in order — all of them are
// pure and only the row read can fail, and a column holds an entry only
// where the row exists, so the answer and any error are the closure's.
func testPreds(ps []Pred, pos int, i int32) verdict {
	v := verdictPass
	for k := range ps {
		p := &ps[k]
		if !p.covers(pos) {
			continue
		}
		if p.Col == nil || !p.Col.has(i) {
			v = verdictAsk
			continue
		}
		if !p.test(i) {
			return verdictFail
		}
	}
	return v
}
