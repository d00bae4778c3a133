package exec

import (
	"fmt"
	"sort"
	"time"

	"grfusion/internal/types"
)

// Instrumented wraps one physical operator with per-operator execution
// accounting: rows produced, Next calls, and cumulative wall time spent in
// the subtree (Open plus every Next). It is the executor's PROFILE layer:
// plans run uninstrumented by default, and EXPLAIN ANALYZE (or the
// slow-query log) rebuilds the tree through Instrument before running it,
// so the per-row timestamp reads are paid only when somebody asked to see
// them.
type Instrumented struct {
	// Op is the wrapped operator; Children() of the wrapper returns the
	// wrapped children, so exec.Explain renders the annotated tree.
	Op       Operator
	children []Operator
	// ctx is the execution the tree profiles, set on every node when the
	// root opens, so each line renders for the version it read.
	ctx *Context

	openNS     int64 // wall time inside Op.Open
	nextNS     int64 // wall time inside the *timed* Next calls
	nexts      int64 // Next calls (including the exhausted one)
	timedNexts int64 // Next calls that actually read the clock
	rows       int64 // rows produced
}

// Timing is sampled, not exhaustive: reading the clock twice around every
// Next would tax fast row streams by double-digit percentages, which is
// exactly what a profiler must not do. The first sampleExact calls are
// timed precisely (so small iterators stay exact), then one call in
// sampleEvery; reported times extrapolate from the timed sample. The
// numbers keep the armed slow-query-log overhead inside the measurement
// noise on sub-millisecond traversal statements (the grbench
// "observability" experiment is the regression check).
const (
	sampleExact = 8
	sampleEvery = 64
)

// Instrument rebuilds the operator tree with every node wrapped in an
// Instrumented shell. The original operators are shared, not copied —
// inner nodes are shallow-copied only to repoint their child fields at the
// wrapped children (withChildren) — so instrumenting a plan never perturbs
// what it computes, and the uninstrumented plan remains usable.
func Instrument(root Operator) *Instrumented {
	kids := root.Children()
	r, ok := root.(rewirer)
	if !ok || len(kids) == 0 {
		return &Instrumented{Op: root, children: kids}
	}
	wrapped := make([]Operator, len(kids))
	for i, k := range kids {
		wrapped[i] = Instrument(k)
	}
	return &Instrumented{Op: r.withChildren(wrapped), children: wrapped}
}

// rewirer is an inner operator whose withChildren returns a shallow copy
// reading cs, in Children order.
type rewirer interface{ withChildren(cs []Operator) Operator }

// Schema implements Operator.
func (n *Instrumented) Schema() *types.Schema { return n.Op.Schema() }

// Children implements Operator: it returns the instrumented children so
// exec.Explain renders annotations at every level.
func (n *Instrumented) Children() []Operator { return n.children }

// Explain implements Operator: the wrapped operator's line plus actuals.
// A PathScan adds its probes, how many ran a two-sided kernel and how
// many tested their pushed filters on typed columns.
func (n *Instrumented) Explain(ctx *Context) string {
	var kernels string
	if pj, ok := n.Op.(*PathProbeJoin); ok {
		probes, two, typed := pj.Actuals()
		kernels = fmt.Sprintf(" probes=%d two_sided=%d typed=%d", probes, two, typed)
	}
	return fmt.Sprintf("%s (actual rows=%d nexts=%d time=%s%s)",
		n.Op.Explain(ctx), n.rows, n.nexts, fmtDuration(n.CumulativeNS()), kernels)
}

// Open implements Operator.
func (n *Instrumented) Open(ctx *Context) (Iterator, error) {
	if n.ctx == nil {
		n.Walk(func(c *Instrumented) { c.ctx = ctx })
	}
	t0 := time.Now()
	it, err := n.Op.Open(ctx)
	n.openNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	return &instrumentedIter{n: n, it: it}, nil
}

type instrumentedIter struct {
	n  *Instrumented
	it Iterator
}

func (i *instrumentedIter) Next() (types.Row, error) {
	n := i.n
	timed := n.nexts < sampleExact || n.nexts%sampleEvery == 0
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	row, err := i.it.Next()
	if timed {
		n.nextNS += time.Since(t0).Nanoseconds()
		n.timedNexts++
	}
	n.nexts++
	if row != nil {
		n.rows++
	}
	return row, err
}

func (i *instrumentedIter) Close() { i.it.Close() }

// Rows reports how many rows the node produced.
func (n *Instrumented) Rows() int64 { return n.rows }

// NextCalls reports how many times Next was called on the node.
func (n *Instrumented) NextCalls() int64 { return n.nexts }

// CumulativeNS is the wall time spent in the node's subtree: its Open plus
// all its Next calls (which include time spent pulling from children).
// When only a sample of Next calls was timed, the total is extrapolated
// from the sample's average.
func (n *Instrumented) CumulativeNS() int64 {
	ns := n.nextNS
	if n.timedNexts > 0 && n.nexts > n.timedNexts {
		ns = int64(float64(ns) * float64(n.nexts) / float64(n.timedNexts))
	}
	return n.openNS + ns
}

// SelfNS is the node's own wall time: cumulative minus the cumulative time
// of its instrumented children (clamped at zero against clock skew).
func (n *Instrumented) SelfNS() int64 {
	self := n.CumulativeNS()
	for _, c := range n.children {
		if ic, ok := c.(*Instrumented); ok {
			self -= ic.CumulativeNS()
		}
	}
	if self < 0 {
		self = 0
	}
	return self
}

// Walk visits the instrumented tree pre-order.
func (n *Instrumented) Walk(fn func(*Instrumented)) {
	fn(n)
	for _, c := range n.children {
		if ic, ok := c.(*Instrumented); ok {
			ic.Walk(fn)
		}
	}
}

// OpCost is one operator's contribution to a statement, used by the
// slow-query log's "top operators" line.
type OpCost struct {
	Line   string // the operator's Explain line
	SelfNS int64
	Rows   int64
}

// TopOperators returns the k most expensive operators by self time,
// descending.
func TopOperators(root *Instrumented, k int) []OpCost {
	var all []OpCost
	root.Walk(func(n *Instrumented) {
		all = append(all, OpCost{Line: n.Op.Explain(n.ctx), SelfNS: n.SelfNS(), Rows: n.Rows()})
	})
	sort.SliceStable(all, func(i, j int) bool { return all[i].SelfNS > all[j].SelfNS })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// fmtDuration renders nanoseconds the way EXPLAIN ANALYZE shows times:
// sub-millisecond values keep microsecond precision, larger ones show
// milliseconds with two decimals.
func fmtDuration(ns int64) string {
	d := time.Duration(ns)
	if d < time.Millisecond {
		return fmt.Sprintf("%.3fms", float64(ns)/1e6)
	}
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}
