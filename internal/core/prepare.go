package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/plan"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// Prepared is a compiled, parameterized SELECT: parsed and planned once,
// executable many times with different `?` argument values. This is the
// VoltDB execution model the paper's system inherits — queries run as
// precompiled stored procedures, so steady-state query time is pure
// execution with no parse or plan cost.
//
// A plan holds no version (version.go), so writes leave it in place and
// the §6.3 BFS/DFS choice follows each pinned version's fan-out. It is
// replaced only when the published catalog or the planner options differ
// from those it was built under — after DDL, CREATE INDEX included — and
// an execution then fails cleanly if its objects were dropped. The result
// columns are the ones Prepare saw.
type Prepared struct {
	// statement, the parsed *sql.Select, makes it a sql.Statement.
	statement
	e       *Engine
	cols    []string
	nparams int
	plan    atomic.Pointer[catalogPlan]
}

// statement names sql.Statement for Prepared to embed unexported.
type statement = sql.Statement

// catalogPlan is a plan and the catalog and planner options it was built under.
type catalogPlan struct {
	cat  *catalog.Catalog
	opts plan.Options
	op   exec.Operator
}

// Prepare parses and plans a SELECT containing `?` placeholders.
func (e *Engine) Prepare(query string) (*Prepared, error) {
	stmt, nparams, err := sql.ParseWithParams(query)
	if err != nil {
		return nil, err
	}
	s, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("Prepare supports SELECT statements only, got %T (use PrepareDML)", stmt)
	}
	p := &Prepared{statement: s, e: e, nparams: nparams}
	op, err := p.planOn(e.state.Load())
	if err != nil {
		return nil, err
	}
	p.cols = columnNames(op)
	return p, nil
}

// planOn returns the plan held, or a new one if it was built under
// another catalog than st's or other planner options. Executions racing
// across a change may each replan; their plans are equivalent.
func (p *Prepared) planOn(st *dbState) (exec.Operator, error) {
	pl := p.e.planner(st.cat)
	if cp := p.plan.Load(); cp != nil && cp.cat == st.cat && cp.opts == pl.Opts {
		return cp.op, nil
	}
	op, err := pl.PlanSelect(p.statement.(*sql.Select))
	if err != nil {
		return nil, err
	}
	p.plan.Store(&catalogPlan{cat: st.cat, opts: pl.Opts, op: op})
	return op, nil
}

// PreparedDML is a parsed, parameterized INSERT/UPDATE/DELETE — the write
// half of the VoltDB procedure model. Parsing happens once; execution
// re-binds per call (DML binding is cheap: one table schema), so
// steady-state cost is the mutation plus view maintenance.
type PreparedDML struct {
	e       *Engine
	stmt    sql.Statement
	text    string // the original SQL, logged with bound params on a durable engine
	nparams int
}

// PrepareDML parses an INSERT, UPDATE or DELETE containing `?`
// placeholders.
func (e *Engine) PrepareDML(query string) (*PreparedDML, error) {
	stmt, nparams, err := sql.ParseWithParams(query)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sql.Insert, *sql.Update, *sql.Delete:
	default:
		return nil, fmt.Errorf("PrepareDML supports INSERT/UPDATE/DELETE, got %T", stmt)
	}
	return &PreparedDML{e: e, stmt: stmt, text: query, nparams: nparams}, nil
}

// NumParams returns the number of `?` placeholders.
func (p *PreparedDML) NumParams() int { return p.nparams }

// Exec runs the prepared DML with the given parameter values. On a
// durable engine the statement template and its bound parameters are
// logged once the statement applied, like any other mutation.
func (p *PreparedDML) Exec(params ...types.Value) (*Result, error) {
	return p.ExecContext(context.Background(), params...)
}

// ExecContext is Exec under a cancellation context; like every write it
// runs the statement path (execStmt), so the deadline covers the wait for
// the write lock and the execution is observed like an ad hoc one.
func (p *PreparedDML) ExecContext(ctx context.Context, params ...types.Value) (*Result, error) {
	if len(params) != p.nparams {
		return nil, fmt.Errorf("prepared statement expects %d parameter(s), got %d",
			p.nparams, len(params))
	}
	return p.e.execStmt(ctx, p.stmt, p.text, params)
}

// NumParams returns the number of `?` placeholders in the statement.
func (p *Prepared) NumParams() int { return p.nparams }

// Columns returns the result column names.
func (p *Prepared) Columns() []string { return p.cols }

// Query executes the prepared plan with the given parameter values. It
// pins the current engine version like any reader — no lock taken — so
// any number of prepared queries (and ad-hoc reads) run concurrently,
// even alongside writers; operator trees keep all per-execution state in
// their iterators, making a Prepared safe for concurrent Query calls
// from multiple goroutines.
func (p *Prepared) Query(params ...types.Value) (*Result, error) {
	return p.QueryContext(context.Background(), params...)
}

// QueryContext is Query under a cancellation context. It runs the
// statement path (execStmt) like an ad hoc SELECT — same deadline,
// accounting and panic isolation — under the plan it holds.
func (p *Prepared) QueryContext(ctx context.Context, params ...types.Value) (*Result, error) {
	if len(params) != p.nparams {
		return nil, fmt.Errorf("prepared statement expects %d parameter(s), got %d",
			p.nparams, len(params))
	}
	return p.e.execStmt(ctx, p, "<prepared query>", params)
}
