package exec

import (
	"fmt"
	"strings"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// Singleton produces exactly one empty row. It anchors path scans and
// constant SELECTs that have no relational input.
type Singleton struct{}

// Schema implements Operator.
func (Singleton) Schema() *types.Schema { return types.NewSchema() }

// Open implements Operator.
func (Singleton) Open(*Context) (Iterator, error) { return &singletonIter{}, nil }

// Explain implements Operator.
func (Singleton) Explain() string { return "Singleton" }

// Children implements Operator.
func (Singleton) Children() []Operator { return nil }

type singletonIter struct{ done bool }

func (s *singletonIter) Next() (types.Row, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	return types.Row{}, nil
}
func (s *singletonIter) Close() {}

// DebugPanicTable, when non-empty, makes Open of a scan over the named
// table panic — the fault-injection hook behind the server's
// panic-isolation tests, mirroring catalog.DebugSkipEdgeDelete. Never set
// outside tests.
var DebugPanicTable string

// DebugStallTable and DebugStall, when set, make Open of a scan over the
// named table call DebugStall (typically blocking on a channel) — the
// deterministic "in-flight statement" hook behind the graceful-shutdown
// tests. Never set outside tests.
var (
	DebugStallTable string
	DebugStall      func()
)

// debugScanHooks applies the test-only fault hooks for a scan over name.
func debugScanHooks(name string) {
	if DebugPanicTable != "" && strings.EqualFold(name, DebugPanicTable) {
		panic(fmt.Sprintf("exec: injected panic opening scan over %s (DebugPanicTable)", name))
	}
	if DebugStall != nil && strings.EqualFold(name, DebugStallTable) {
		DebugStall()
	}
}

// Access is how a table predicate reaches its rows: through Index — a point
// probe when Lo and Hi are the same expression, else a range whose nil side
// is open — or, with a nil Index, by visiting every row. The bounds apply
// to the index's leading column and are execution-time constants (literals
// or `?` parameters). plan.ChooseAccess builds it, for SELECT, UPDATE and
// DELETE alike.
type Access struct {
	Index        *storage.Index
	Lo, Hi       expr.Expr
	LoInc, HiInc bool
}

func (a Access) point() bool { return a.Lo != nil && a.Lo == a.Hi }

// RowIDs returns the ids of the rows a reaches in rows, a view of t, with
// the bounds evaluated once. This is the one place a predicate's constants
// meet an index, so it is where predicate semantics are kept over index-key
// semantics: a bound that is NULL or not comparable with the column matches
// no row (an index would find the NULL-keyed rows, or order the bound by
// its kind tag), and an open low end stops short of the NULL keys, which
// sort first but satisfy no comparison.
func (a Access) RowIDs(t *storage.Table, rows storage.RowView, params types.Row) ([]storage.RowID, error) {
	if a.Index == nil {
		ids := make([]storage.RowID, 0, rows.Len())
		rows.Scan(func(id storage.RowID, _ types.Row) bool {
			ids = append(ids, id)
			return true
		})
		return ids, nil
	}
	col := t.Schema().Columns[a.Index.Columns()[0]]
	env := &expr.Env{Params: params}
	// bound evaluates one end; ok=false when it can match no row.
	bound := func(e expr.Expr, inc bool) (b storage.Bound, ok bool, err error) {
		v, err := expr.Eval(e, env)
		if err != nil {
			return b, false, fmt.Errorf("index bound: %v", err)
		}
		return storage.Bound{Key: types.Row{v}, Inclusive: inc}, !v.IsNull() && types.Comparable(v.Kind, col.Type), nil
	}
	var lo, hi storage.Bound
	var ok bool
	var err error
	switch {
	case a.Lo != nil:
		if lo, ok, err = bound(a.Lo, a.LoInc); !ok {
			return nil, err
		}
	case a.Hi != nil:
		lo.Key = types.Row{types.Null()} // exclusive: start above the NULL keys
	}
	switch {
	case a.point():
		hi = lo
	case a.Hi != nil:
		if hi, ok, err = bound(a.Hi, a.HiInc); !ok {
			return nil, err
		}
	}
	return rows.Probe(a.Index, lo, hi), nil
}

// TableScan is the one relational leaf: it reaches a table's rows through
// Access and applies the residual Filter, which is bound against the
// scan's output schema.
type TableScan struct {
	Table  *storage.Table
	Alias  string
	Access Access
	Filter expr.Expr

	// Rows is the row view of Table the scan reads: the snapshot of the
	// version the plan pinned, or the table itself for a live binding.
	Rows storage.RowView

	schema *types.Schema
}

// NewTableScan creates a scan over rows, a view of table t, under the
// given range variable.
func NewTableScan(t *storage.Table, rows storage.RowView, alias string, acc Access, filter expr.Expr) *TableScan {
	return &TableScan{Table: t, Rows: rows, Alias: alias, Access: acc, Filter: filter,
		schema: t.Schema().WithQualifier(alias)}
}

// Schema implements Operator.
func (s *TableScan) Schema() *types.Schema { return s.schema }

// Explain implements Operator: a SeqScan, IndexScan (point) or
// IndexRangeScan line, by access.
func (s *TableScan) Explain() string {
	a := s.Access
	var out string
	switch {
	case a.Index == nil:
		out = fmt.Sprintf("SeqScan %s", s.Table.Name())
		if s.Alias != "" && s.Alias != s.Table.Name() {
			out += " AS " + s.Alias
		}
	case a.point():
		out = fmt.Sprintf("IndexScan %s using %s", s.Table.Name(), a.Index.Name())
	default:
		out = fmt.Sprintf("IndexRangeScan %s using %s", s.Table.Name(), a.Index.Name())
		if a.Lo != nil {
			op := ">"
			if a.LoInc {
				op = ">="
			}
			out += fmt.Sprintf(" %s %s", op, a.Lo)
		}
		if a.Hi != nil {
			op := "<"
			if a.HiInc {
				op = "<="
			}
			out += fmt.Sprintf(" %s %s", op, a.Hi)
		}
	}
	if s.Filter != nil {
		out += fmt.Sprintf(" filter=%s", s.Filter)
	}
	return out
}

// Children implements Operator.
func (s *TableScan) Children() []Operator { return nil }

// Open implements Operator. It materializes the candidate row ids up
// front: the row view is stable for the statement's lifetime (pinned
// snapshots are immutable, live-table scans run with the engine lock held).
func (s *TableScan) Open(ctx *Context) (Iterator, error) {
	debugScanHooks(s.Table.Name())
	ids, err := s.Access.RowIDs(s.Table, s.Rows, ctx.Params)
	if err != nil {
		return nil, err
	}
	return &tableScanIter{ctx: ctx, filter: s.Filter, rows: s.Rows, ids: ids}, nil
}

type tableScanIter struct {
	ctx    *Context
	filter expr.Expr
	rows   storage.RowView
	ids    []storage.RowID
	i      int
}

func (it *tableScanIter) Next() (types.Row, error) {
	for it.i < len(it.ids) {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		row, ok := it.rows.Get(it.ids[it.i])
		it.i++
		if !ok {
			continue
		}
		if it.filter != nil {
			ok, err := expr.EvalBool(it.filter, &expr.Env{Row: row, Params: it.ctx.Params})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		it.ctx.RowsEmitted++
		return row, nil
	}
	return nil, nil
}
func (it *tableScanIter) Close() {}

// ElemScan iterates the vertexes or the edges of a graph view version as
// extended tuples: the paper's VertexScan (declared attributes plus
// FanOut/FanIn) and EdgeScan operators (§5.1.1), and EXPLAIN prints them
// under those names. The element kind picks the enumerator and the row
// builder.
type ElemScan struct {
	At     *catalog.GraphViewAt
	Elem   expr.ElemKind
	Alias  string
	Filter expr.Expr

	schema *types.Schema
}

// NewElemScan creates a vertex or edge scan over the bound view version.
func NewElemScan(at *catalog.GraphViewAt, elem expr.ElemKind, alias string, filter expr.Expr) *ElemScan {
	schema := at.GV.EdgeSchema()
	if elem == expr.ElemVertexes {
		schema = at.GV.VertexSchema()
	}
	return &ElemScan{At: at, Elem: elem, Alias: alias, Filter: filter,
		schema: schema.WithQualifier(alias)}
}

// Schema implements Operator.
func (s *ElemScan) Schema() *types.Schema { return s.schema }

// Explain implements Operator.
func (s *ElemScan) Explain() string {
	name := "EdgeScan"
	if s.Elem == expr.ElemVertexes {
		name = "VertexScan"
	}
	out := fmt.Sprintf("%s %s", name, s.At.GV.Name)
	if s.Filter != nil {
		out += fmt.Sprintf(" filter=%s", s.Filter)
	}
	return out
}

// Children implements Operator.
func (s *ElemScan) Children() []Operator { return nil }

// Open implements Operator: it lists the version's elements up front and
// builds each extended tuple as the iterator reaches it.
func (s *ElemScan) Open(ctx *Context) (Iterator, error) {
	it := &elemScanIter{ctx: ctx, filter: s.Filter}
	if s.Elem == expr.ElemVertexes {
		verts := listAll(s.At.Topo.Vertices)
		it.n, it.row = len(verts), func(i int) (types.Row, error) { return s.At.VertexRow(verts[i]) }
	} else {
		edges := listAll(s.At.Topo.Edges)
		it.n, it.row = len(edges), func(i int) (types.Row, error) { return s.At.EdgeRow(edges[i]) }
	}
	return it, nil
}

// listAll collects every element an enumerator yields.
func listAll[T any](each func(func(T) bool)) []T {
	var out []T
	each(func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}

type elemScanIter struct {
	ctx    *Context
	filter expr.Expr
	n, i   int
	row    func(i int) (types.Row, error) // the i-th element's extended tuple
}

func (it *elemScanIter) Next() (types.Row, error) {
	for it.i < it.n {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		row, err := it.row(it.i)
		it.i++
		if err != nil {
			return nil, err
		}
		if it.filter != nil {
			ok, err := expr.EvalBool(it.filter, &expr.Env{Row: row, Params: it.ctx.Params})
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		it.ctx.RowsEmitted++
		return row, nil
	}
	return nil, nil
}
func (it *elemScanIter) Close() {}
