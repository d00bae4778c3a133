// Package exec implements the physical operators of GRFusion's query
// engine. Operators follow the Volcano iterator model (§5.1): Open yields a
// pull-based Iterator, and graph operators (ElemScan — the paper's
// VertexScan and EdgeScan — and the PathScan family) sit at the leaves of
// the same pipelines as the relational operators, emitting extended tuples
// that relational operators consume without knowing their graph origin
// (§5.2).
package exec

import (
	"fmt"

	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// Context carries per-query execution state: the intermediate-result
// memory budget (VoltDB's temporary-memory limit, which the paper's
// Twitter experiment trips over) and counters exposed to benchmarks.
type Context struct {
	// MemLimit bounds the bytes of materialized intermediate state (hash
	// tables, sort buffers, nested-loop materializations). Zero means
	// unlimited.
	MemLimit int64

	// Params holds the positional arguments of the prepared statement
	// being executed (empty for ad-hoc statements).
	Params types.Row

	// Workers bounds the worker pool a parallelizable PathScan may fan a
	// multi-source traversal across. <= 1 keeps traversals sequential.
	Workers int

	used int64

	// Cancellation signal (see cancel.go). done is nil until Bind attaches
	// a context; both fields are immutable afterwards, so worker goroutines
	// may poll CheckCancel without synchronization.
	done        <-chan struct{}
	cancelCause func() error

	// Counters. EdgesTraversed is updated with atomic adds (traversal
	// workers flush their local counts into it); read it only after the
	// query completes, or via atomic loads. AnalyticsRuns/AnalyticsIters
	// count the analytics kernels this execution ran (atomic adds, like
	// EdgesTraversed); the plan's own actuals accumulate across executions
	// of a cached plan, these do not.
	RowsEmitted    int64
	EdgesTraversed int64
	PathsEmitted   int64
	AnalyticsRuns  int64
	AnalyticsIters int64
}

// NewContext creates an execution context with the given memory budget.
func NewContext(memLimit int64) *Context { return &Context{MemLimit: memLimit} }

// Grow charges bytes of intermediate memory, failing when the budget is
// exhausted (the executor's analogue of VoltDB's temp-table limit).
func (c *Context) Grow(bytes int64) error {
	c.used += bytes
	if c.MemLimit > 0 && c.used > c.MemLimit {
		return fmt.Errorf("%w (%d bytes used, limit %d)", ErrMemLimit, c.used, c.MemLimit)
	}
	return nil
}

// Release returns bytes to the budget when an operator frees its state.
func (c *Context) Release(bytes int64) {
	c.used -= bytes
	if c.used < 0 {
		c.used = 0
	}
}

// MemUsed reports the current charged intermediate memory.
func (c *Context) MemUsed() int64 { return c.used }

// Iterator produces rows one at a time; Next returns (nil, nil) at end of
// stream.
type Iterator interface {
	Next() (types.Row, error)
	Close()
}

// Operator is a physical plan node.
type Operator interface {
	// Schema describes the rows the operator produces.
	Schema() *types.Schema
	// Open starts execution.
	Open(ctx *Context) (Iterator, error)
	// Explain renders one line describing the operator (children are
	// rendered by Explain on the tree).
	Explain() string
	// Children returns the operator's inputs, for plan rendering.
	Children() []Operator
}

// Explain renders an operator tree as an indented plan, mirroring the QEP
// figures of the paper.
func Explain(op Operator) string {
	var out []byte
	var walk func(o Operator, depth int)
	walk = func(o Operator, depth int) {
		for i := 0; i < depth; i++ {
			out = append(out, ' ', ' ')
		}
		out = append(out, o.Explain()...)
		out = append(out, '\n')
		for _, c := range o.Children() {
			walk(c, depth+1)
		}
	}
	walk(op, 0)
	return string(out)
}

// Collect drains an operator into a materialized result, for tests and the
// engine's statement API.
func Collect(ctx *Context, op Operator) ([]types.Row, error) {
	it, err := op.Open(ctx)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []types.Row
	for {
		if err := ctx.CheckCancel(); err != nil {
			return nil, err
		}
		row, err := it.Next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			return out, nil
		}
		out = append(out, row)
	}
}

// rowBytes estimates a row's resident size for memory accounting.
func rowBytes(r types.Row) int64 { return storage.RowApproxBytes(r) }

// closedIter is an exhausted iterator.
type closedIter struct{}

func (closedIter) Next() (types.Row, error) { return nil, nil }
func (closedIter) Close()                   {}
