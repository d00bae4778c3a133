package core

import (
	"context"
	"fmt"
	"sync"

	"grfusion/internal/exec"
	"grfusion/internal/sql"
	"grfusion/internal/types"
)

// Prepared is a compiled, parameterized SELECT: parsed once, planned
// lazily per engine version, executable many times with different `?`
// argument values. This is the VoltDB execution model the paper's system
// inherits — queries run as precompiled stored procedures, so
// steady-state query time is pure execution with no parse or plan cost.
//
// Under MVCC a plan is bound to the version it was planned against (its
// scans carry that version's snapshots and topology bindings), so the
// compiled operator tree is cached per version sequence: as long as no
// mutation intervenes, executions reuse the cached plan; after a
// mutation, the next execution replans against the new version — which
// also means DDL no longer silently invalidates a Prepared, it just
// replans (and fails cleanly if its objects were dropped).
type Prepared struct {
	e       *Engine
	s       *sql.Select
	cols    []string
	nparams int

	// planMu guards the (seq, op) plan cache; executions only hold it
	// while fetching or refreshing the cached plan, never during
	// execution.
	planMu sync.Mutex
	seq    uint64
	op     exec.Operator
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
	st := e.pin()
	defer e.unpin(st)
	op, err := e.planner(st).PlanSelect(s)
	if err != nil {
		return nil, err
	}
	return &Prepared{e: e, s: s, cols: columnNames(op), nparams: nparams, seq: st.seq, op: op}, nil
}

// planFor returns the operator tree for the pinned version, reusing the
// cached plan when the version is unchanged since it was built.
func (p *Prepared) planFor(st *dbState) (exec.Operator, error) {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if p.op == nil || p.seq != st.seq {
		op, err := p.e.planner(st).PlanSelect(p.s)
		if err != nil {
			return nil, err
		}
		p.seq, p.op = st.seq, op
	}
	return p.op, nil
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
	return p.e.execStmt(ctx, p.stmt, p.text, params, nil)
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
// accounting and panic isolation — adding only its per-version plan cache.
func (p *Prepared) QueryContext(ctx context.Context, params ...types.Value) (*Result, error) {
	if len(params) != p.nparams {
		return nil, fmt.Errorf("prepared statement expects %d parameter(s), got %d",
			p.nparams, len(params))
	}
	return p.e.execStmt(ctx, p.s, "<prepared query>", params, p)
}
