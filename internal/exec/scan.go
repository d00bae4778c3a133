package exec

import (
	"fmt"
	"strings"

	"grfusion/internal/catalog"
	"grfusion/internal/expr"
	"grfusion/internal/graph"
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

	// Rows is the row view the scan reads: a pinned immutable snapshot on
	// the lock-free read path, or nil to read the live table (writer-side
	// plans and directly constructed operators).
	Rows storage.RowView

	schema *types.Schema
}

// NewTableScan creates a scan over table under the given range variable.
func NewTableScan(t *storage.Table, alias string, acc Access, filter expr.Expr) *TableScan {
	return &TableScan{Table: t, Alias: alias, Access: acc, Filter: filter,
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
	rows := storage.RowView(s.Table)
	if s.Rows != nil {
		rows = s.Rows
	}
	ids, err := s.Access.RowIDs(s.Table, rows, ctx.Params)
	if err != nil {
		return nil, err
	}
	return &tableScanIter{ctx: ctx, filter: s.Filter, rows: rows, ids: ids}, nil
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

// VertexScan iterates the vertexes of a graph view as extended tuples
// (attributes + FanOut/FanIn), the paper's VertexScan operator (§5.1.1).
type VertexScan struct {
	GV     *catalog.GraphView
	Alias  string
	Filter expr.Expr

	// At, when set, binds the scan to a pinned version of the view
	// (topology + source snapshots); nil scans the live view.
	At *catalog.GraphViewAt

	schema *types.Schema
}

// NewVertexScan creates a vertex scan over the graph view.
func NewVertexScan(gv *catalog.GraphView, alias string, filter expr.Expr) *VertexScan {
	return &VertexScan{GV: gv, Alias: alias, Filter: filter,
		schema: gv.VertexSchema().WithQualifier(alias)}
}

func (s *VertexScan) at() *catalog.GraphViewAt {
	if s.At != nil {
		return s.At
	}
	return s.GV.Live()
}

// Schema implements Operator.
func (s *VertexScan) Schema() *types.Schema { return s.schema }

// Explain implements Operator.
func (s *VertexScan) Explain() string {
	out := fmt.Sprintf("VertexScan %s", s.GV.Name)
	if s.Filter != nil {
		out += fmt.Sprintf(" filter=%s", s.Filter)
	}
	return out
}

// Children implements Operator.
func (s *VertexScan) Children() []Operator { return nil }

// Open implements Operator.
func (s *VertexScan) Open(ctx *Context) (Iterator, error) {
	at := s.at()
	var verts []*graph.Vertex
	at.G.Vertices(func(v *graph.Vertex) bool {
		verts = append(verts, v)
		return true
	})
	return &vertexScanIter{ctx: ctx, s: s, at: at, verts: verts}, nil
}

type vertexScanIter struct {
	ctx   *Context
	s     *VertexScan
	at    *catalog.GraphViewAt
	verts []*graph.Vertex
	i     int
}

func (it *vertexScanIter) Next() (types.Row, error) {
	for it.i < len(it.verts) {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		v := it.verts[it.i]
		it.i++
		row, err := it.at.VertexRow(v)
		if err != nil {
			return nil, err
		}
		if it.s.Filter != nil {
			ok, err := expr.EvalBool(it.s.Filter, &expr.Env{Row: row, Params: it.ctx.Params})
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
func (it *vertexScanIter) Close() {}

// EdgeScan iterates the edges of a graph view as extended tuples, the
// paper's EdgeScan operator (§5.1.1).
type EdgeScan struct {
	GV     *catalog.GraphView
	Alias  string
	Filter expr.Expr

	// At, when set, binds the scan to a pinned version of the view.
	At *catalog.GraphViewAt

	schema *types.Schema
}

// NewEdgeScan creates an edge scan over the graph view.
func NewEdgeScan(gv *catalog.GraphView, alias string, filter expr.Expr) *EdgeScan {
	return &EdgeScan{GV: gv, Alias: alias, Filter: filter,
		schema: gv.EdgeSchema().WithQualifier(alias)}
}

func (s *EdgeScan) at() *catalog.GraphViewAt {
	if s.At != nil {
		return s.At
	}
	return s.GV.Live()
}

// Schema implements Operator.
func (s *EdgeScan) Schema() *types.Schema { return s.schema }

// Explain implements Operator.
func (s *EdgeScan) Explain() string {
	out := fmt.Sprintf("EdgeScan %s", s.GV.Name)
	if s.Filter != nil {
		out += fmt.Sprintf(" filter=%s", s.Filter)
	}
	return out
}

// Children implements Operator.
func (s *EdgeScan) Children() []Operator { return nil }

// Open implements Operator.
func (s *EdgeScan) Open(ctx *Context) (Iterator, error) {
	at := s.at()
	var edges []*graph.Edge
	at.G.Edges(func(e *graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	return &edgeScanIter{ctx: ctx, s: s, at: at, edges: edges}, nil
}

type edgeScanIter struct {
	ctx   *Context
	s     *EdgeScan
	at    *catalog.GraphViewAt
	edges []*graph.Edge
	i     int
}

func (it *edgeScanIter) Next() (types.Row, error) {
	for it.i < len(it.edges) {
		if err := it.ctx.CheckCancel(); err != nil {
			return nil, err
		}
		e := it.edges[it.i]
		it.i++
		row, err := it.at.EdgeRow(e)
		if err != nil {
			return nil, err
		}
		if it.s.Filter != nil {
			ok, err := expr.EvalBool(it.s.Filter, &expr.Env{Row: row, Params: it.ctx.Params})
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
func (it *edgeScanIter) Close() {}
