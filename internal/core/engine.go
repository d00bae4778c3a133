// Package core implements the GRFusion engine: the paper's primary
// contribution glued over the substrates. It parses and executes
// statements, manages graph views as first-class database objects (§3),
// maintains them transactionally under DML (§3.3), and runs cross-model
// QEPs produced by the planner (§5).
//
// Concurrency departs from the single-threaded H-Store/VoltDB partition
// model the paper builds on: the engine is multi-versioned (version.go).
// Every successful mutating statement publishes an immutable version —
// catalog, copy-on-write table snapshots, graph-view topology bindings —
// behind one atomic pointer. Read-only statements (SELECT over relations
// or the VERTEXES/EDGES/PATHS facets, EXPLAIN, SHOW) pin the current
// version and execute against it without taking the engine lock, so
// readers never stall behind writers and a stalled reader never blocks
// DML. Mutating statements still serialize among themselves under the
// exclusive lock — graph-view maintenance (§3.3) remains transactionally
// serialized — and publish with a single pointer swap on success.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"grfusion/internal/catalog"
	"grfusion/internal/exec"
	"grfusion/internal/metrics"
	"grfusion/internal/plan"
	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// Typed lifecycle errors. ErrTimeout/ErrCanceled/ErrMemLimit re-export the
// executor's sentinels so callers can match with errors.Is without
// importing internal/exec.
var (
	// ErrTimeout reports a statement that exceeded its deadline (a caller
	// context deadline or the engine's QUERY_TIMEOUT).
	ErrTimeout = exec.ErrTimeout
	// ErrCanceled reports a statement aborted by explicit cancellation.
	ErrCanceled = exec.ErrCanceled
	// ErrMemLimit reports the per-statement intermediate-memory limit.
	ErrMemLimit = exec.ErrMemLimit
	// ErrQueryPanic reports a statement aborted by a recovered operator
	// panic; the full stack is logged through the standard logger. The
	// engine survives, isolating one crashing query from the process.
	ErrQueryPanic = errors.New("query aborted by internal panic")
	// ErrDegraded reports a mutating statement rejected because the
	// engine is in degraded read-only mode (health.go): the durability
	// path is failing, reads keep serving, and a background healer is
	// retrying. Not retryable — distinct from admission shedding.
	ErrDegraded = exec.ErrDegraded
)

// ctxErr maps a context's error state to the typed lifecycle errors.
func ctxErr(ctx context.Context) error {
	switch ctx.Err() {
	case nil:
		return nil
	case context.DeadlineExceeded:
		return ErrTimeout
	default:
		return ErrCanceled
	}
}

// Options configure an Engine.
type Options struct {
	// MemLimit bounds intermediate-result memory per statement (bytes).
	// Zero means unlimited. (VoltDB's recommended temp-table limit is
	// 100 MB; the paper's Twitter experiment exceeds 16 GB and aborts.)
	MemLimit int64
	// Workers bounds the worker pool a single parallelizable PathScan may
	// fan a multi-source traversal across (reachability from every vertex,
	// triangle enumeration, ...). Values <= 1 keep traversals sequential;
	// results are identical either way — the parallel operator merges
	// per-source results in deterministic source order.
	Workers int
	// QueryTimeout bounds each statement's execution wall clock (the
	// per-statement timeout of the paper's host system, VoltDB). Zero
	// disables it; it can be changed at runtime with SET QUERY_TIMEOUT
	// (milliseconds) or SetQueryTimeout. Statements that exceed it abort
	// cooperatively with ErrTimeout.
	QueryTimeout time.Duration
	// SlowQuery is the slow-query-log threshold: statements that run at
	// least this long are counted and logged with their duration and (for
	// queries) their top operators by self time. Zero disables the log; it
	// can be changed at runtime with SET SLOW_QUERY (milliseconds) or
	// SetSlowQuery.
	SlowQuery time.Duration
	// Planner options (pushdown/inference toggles for ablations).
	Plan plan.Options
	// Durability configures the write-ahead log and checkpoints
	// (durability.go). It only takes effect through Open, which recovers
	// existing state before attaching the log; New ignores it.
	Durability Durability
}

// Engine is one in-memory database instance.
type Engine struct {
	// mu is the writer lock: mutating statements, checkpoints and
	// snapshots hold it. Everything reachable from the catalog — tables,
	// indexes, graph-view topologies — is only mutated under it. No reader
	// takes it: readers pin the current published version (see version.go
	// and state below).
	mu   sync.Mutex
	cat  *catalog.Catalog
	opts Options

	// state is the currently published version; readers pin it with one
	// atomic load + pin count (version.go). states is the writer-guarded
	// registry of potentially-live versions behind mvcc.versions_live;
	// pinned counts readers currently holding any pin.
	state  atomic.Pointer[dbState]
	states []*dbState
	pinned atomic.Int64

	// planOpts and workers hold the runtime-tunable planner options and
	// traversal worker count. They are atomic because the lock-free read
	// path loads them without holding mu.
	planOpts atomic.Pointer[plan.Options]
	workers  atomic.Int64

	// queryTimeoutNS is the per-statement deadline in nanoseconds (0 =
	// none). It is atomic, not guarded by mu: execStmt reads it before
	// queueing for the statement lock, so the deadline clock covers
	// lock-wait time too.
	queryTimeoutNS atomic.Int64

	// slowQueryNS is the slow-query-log threshold in nanoseconds (0 =
	// disabled), atomic for the same reason as queryTimeoutNS.
	slowQueryNS atomic.Int64

	// metrics is the engine-wide observability registry (see observe.go).
	metrics metrics.Metrics

	// dur is the durability runtime (durability.go): non-nil dur.log means
	// every mutating statement is logged once it applied. Guarded by mu,
	// like the catalog, except dur.log itself: Open sets it once before
	// returning the engine, so it may be read without the lock.
	dur durState

	// health is the disk-fault tolerance state machine (health.go):
	// degraded read-only mode, the self-healing retry loop, and the snapshot
	// behind SHOW HEALTH / the wire health command / healthz+readyz.
	health healthState
}

// New creates an empty engine.
func New(opts Options) *Engine {
	e := &Engine{cat: catalog.New(), opts: opts}
	e.SetQueryTimeout(opts.QueryTimeout)
	e.SetSlowQuery(opts.SlowQuery)
	e.SetPlanOptions(opts.Plan)
	e.workers.Store(int64(opts.Workers))
	e.publishLocked() // version 1: the empty database
	return e
}

// QueryTimeout returns the per-statement deadline (zero = none).
func (e *Engine) QueryTimeout() time.Duration {
	return time.Duration(e.queryTimeoutNS.Load())
}

// SetQueryTimeout sets the per-statement deadline; zero or negative
// disables it. Equivalent to SET QUERY_TIMEOUT = <ms>.
func (e *Engine) SetQueryTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.queryTimeoutNS.Store(int64(d))
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a query (nil for DDL/DML).
	Columns []string
	// Rows holds query output.
	Rows []types.Row
	// Affected counts rows touched by DML.
	Affected int
}

// Catalog exposes the system catalog (read-mostly; callers must not mutate
// concurrently with statement execution).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetPlanOptions swaps the planner options (used by experiment ablations).
// New values apply to statements planned after the call.
func (e *Engine) SetPlanOptions(o plan.Options) {
	e.planOpts.Store(&o)
}

// planOptions reads the current planner options (lock-free).
func (e *Engine) planOptions() plan.Options { return *e.planOpts.Load() }

// workerCount reads the current traversal worker-pool size (lock-free).
func (e *Engine) workerCount() int { return int(e.workers.Load()) }

// Execute parses and runs a single statement.
func (e *Engine) Execute(query string) (*Result, error) {
	return e.ExecuteContext(context.Background(), query)
}

// ExecuteContext parses and runs a single statement under ctx's lifecycle:
// its deadline or cancellation aborts cooperative operators with
// ErrTimeout/ErrCanceled.
func (e *Engine) ExecuteContext(ctx context.Context, query string) (*Result, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.execStmt(ctx, stmt, query, nil, nil)
}

// ExecuteScript runs a semicolon-separated script, stopping at the first
// error. It returns one result per executed statement.
func (e *Engine) ExecuteScript(script string) ([]*Result, error) {
	return e.ExecuteScriptContext(context.Background(), script)
}

// ExecuteScriptContext is ExecuteScript under a cancellation context; the
// script stops between statements once the context fires. Each statement
// carries its own source text, so a durable engine logs script statements
// individually.
func (e *Engine) ExecuteScriptContext(ctx context.Context, script string) ([]*Result, error) {
	stmts, texts, err := sql.ParseAllWithText(script)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for i, s := range stmts {
		if err := ctxErr(ctx); err != nil {
			return out, err
		}
		r, err := e.execStmt(ctx, s, texts[i], nil, nil)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// execStmt is the statement path: the one body every surface that runs a
// statement goes through — Execute/ExecuteScript (text), Prepared.Query
// (cache set: its per-version plan cache), PreparedDML.Exec (params),
// Explain, and WAL replay. Read-only statements (as classified by
// plan.ReadOnly) pin the current published version and run lock-free;
// everything else serializes under the exclusive lock and publishes a new
// version on success. Around both arms:
//
//   - ctx's deadline/cancellation — tightened by the engine's QUERY_TIMEOUT
//     when one is set — aborts cooperative operators and traversal kernels
//     with ErrTimeout/ErrCanceled. The deadline clock starts before the
//     statement queues for the execution lock, so lock-wait counts too.
//   - Every execution lands in the by-kind counter, the latency histogram,
//     the by-sentinel error counters and the slow-query log (text is the
//     statement's SQL, which the log prefers over a synthesized name).
//   - A panicking operator is recovered into ErrQueryPanic (stack logged
//     via the standard logger) instead of taking down the process. For
//     mutating statements the undo journal is not replayed across a panic,
//     so the error also warns that state may be partially applied.
func (e *Engine) execStmt(ctx context.Context, stmt sql.Statement, text string, params []types.Value, cache *Prepared) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d := e.QueryTimeout(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	readOnly := plan.ReadOnly(stmt)
	// prof is set when the slow-query log armed instrumentation for this
	// statement's plan; the observe defer mines it for the top operators.
	var prof *exec.Instrumented
	start := time.Now()
	// Deferred observation runs after the panic recovery below (LIFO), so
	// it sees the final error including ErrQueryPanic.
	defer func() {
		e.observeStatement(stmtKind(stmt), text, time.Since(start), err, prof)
	}()
	defer func() {
		if r := recover(); r != nil {
			log.Printf("core: recovered query panic: %v\n%s", r, debug.Stack())
			res = nil
			err = fmt.Errorf("%w: %v", ErrQueryPanic, r)
			if !readOnly {
				err = fmt.Errorf("%w (mutating statement: engine state may be partially applied)", err)
			}
		}
	}()
	if !readOnly {
		return e.write(ctx, stmt, text, params)
	}
	st := e.pin()
	defer e.unpin(st)
	// A statement whose deadline elapsed (or that was canceled) before it
	// pinned aborts before planning anything — mirrors the write body's
	// post-lock check, so an already-dead reader never starts.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		res, prof, err = e.runSelect(ctx, s, st, params, cache)
		return res, err
	case *sql.Explain:
		return e.runExplain(ctx, s, st)
	case *sql.Show:
		return e.runShow(s, st)
	}
	// plan.ReadOnly and this switch must stay in sync.
	return nil, fmt.Errorf("internal: unhandled read-only statement %T", stmt)
}

// write is the write body of the statement path: queue for the exclusive
// lock, commit, publish.
func (e *Engine) write(ctx context.Context, stmt sql.Statement, text string, params []types.Value) (*Result, error) {
	lw := time.Now()
	e.mu.Lock()
	e.metrics.LockWriteWaitNS.Add(time.Since(lw).Nanoseconds())
	defer e.mu.Unlock()
	// Writers serialize: a statement whose deadline elapsed while queueing
	// behind other writers aborts before touching any state.
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	// SET is a runtime tunable, not state: never logged, no new version.
	if s, ok := stmt.(*sql.Set); ok {
		return e.runSet(s)
	}
	res, err := e.commitLocked(stmt, text, params, func(tx *txn) (*Result, error) {
		return e.applyLocked(tx, stmt, params)
	})
	if err == nil {
		// Publish the new version so subsequent readers see this
		// statement's effects. A failed statement publishes nothing: its
		// undo journal restored the live objects and readers keep the
		// previous version.
		e.publishLocked()
	}
	return res, err
}

// commitLocked is the apply → log core of every write, under the write
// lock (write takes it per statement, BulkLoad holds it across its
// batches), and the one place a statement's transaction opens. On a
// durable engine the gate (degraded mode, disk watermarks) runs and the
// record with its allocation pin is built first; then the statement
// applies; only then is its record appended (synced per policy). If apply
// or append fails, the same undo journal restores the live objects, so a
// failed statement leaves nothing in memory or on disk and every record in
// the log is one that applied.
func (e *Engine) commitLocked(stmt sql.Statement, text string, params []types.Value, apply func(*txn) (*Result, error)) (*Result, error) {
	var rec *wal.Record
	if e.dur.log != nil {
		if err := e.walGateLocked(); err != nil {
			return nil, err
		}
		rec = e.walRecordLocked(stmt, text, params)
	}
	tx := &txn{e: e}
	res, err := apply(tx)
	if err == nil && rec != nil {
		err = e.walAppendLocked(rec)
	}
	if err != nil {
		return nil, tx.abort(err)
	}
	if rec != nil {
		e.finishWALLocked()
	}
	return res, nil
}

// applyLocked dispatches a mutating statement under the write lock, inside
// tx.
func (e *Engine) applyLocked(tx *txn, stmt sql.Statement, params []types.Value) (*Result, error) {
	switch stmt.(type) {
	case *sql.CreateTable, *sql.CreateGraphView, *sql.CreateMatView,
		*sql.DropMatView, *sql.DropTable, *sql.DropGraphView, *sql.TruncateTable:
		// DDL rewrites the catalog registry. Clone it first (COW): every
		// published version holds the catalog pointer it was built with,
		// so the registry a pinned reader resolves names through must
		// never change underneath it. These statements change no object
		// the previous registry holds, so restoring its pointer undoes
		// them.
		tx.setCatalog(e.cat.Clone())
	}
	switch s := stmt.(type) {
	case *sql.CreateTable:
		return e.createTable(s)
	case *sql.CreateIndex:
		return e.createIndex(tx, s)
	case *sql.CreateGraphView:
		return e.createGraphView(s)
	case *sql.CreateMatView:
		return e.createMatView(s)
	case *sql.DropMatView:
		if err := e.cat.DropMatView(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropTable:
		if err := e.cat.DropTable(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.DropGraphView:
		if err := e.cat.DropGraphView(s.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.TruncateTable:
		return e.truncateTable(s)
	case *sql.Insert:
		return e.runInsert(tx, s, params)
	case *sql.Update:
		return e.runUpdate(tx, s, params)
	case *sql.Delete:
		return e.runDelete(tx, s, params)
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// planner returns a planner bound to a pinned version.
func (e *Engine) planner(st *dbState) *plan.Planner {
	return &plan.Planner{Cat: st.cat, Opts: e.planOptions(), Pin: st}
}

// execContext builds the per-execution operator context.
func (e *Engine) execContext(ctx context.Context, params []types.Value) *exec.Context {
	ec := exec.NewContext(e.opts.MemLimit)
	ec.Workers = e.workerCount()
	ec.Params = params
	ec.Bind(ctx)
	return ec
}

// Explain returns the physical plan of a SELECT as indented text.
func (e *Engine) Explain(query string) (string, error) {
	stmt, err := sql.Parse(query)
	if err != nil {
		return "", err
	}
	s, ok := stmt.(*sql.Select)
	if !ok {
		return "", fmt.Errorf("EXPLAIN supports SELECT statements only")
	}
	res, err := e.execStmt(context.Background(), &sql.Explain{Query: s}, query, nil, nil)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// runExplain plans the inner SELECT and renders the QEP, one line per row.
// With ANALYZE the plan is also executed through the instrumentation layer
// and every line carries the actual row counts and timings (observe.go).
func (e *Engine) runExplain(ctx context.Context, s *sql.Explain, st *dbState) (*Result, error) {
	op, err := e.planner(st).PlanSelect(s.Query)
	if err != nil {
		return nil, err
	}
	if s.Analyze {
		return e.runExplainAnalyze(ctx, op)
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(exec.Explain(op), "\n"), "\n") {
		res.Rows = append(res.Rows, types.Row{types.NewString(line)})
	}
	return res, nil
}

// runSelect plans and executes a SELECT against the pinned version; a
// prepared execution passes its plan cache, an ad hoc one plans fresh.
// When the slow-query log is armed the plan runs through the
// instrumentation layer and the instrumented root is returned so the
// statement observer can report top operators; otherwise the plan runs
// bare and the middle return is nil.
func (e *Engine) runSelect(ctx context.Context, s *sql.Select, st *dbState, params []types.Value, cache *Prepared) (*Result, *exec.Instrumented, error) {
	var op exec.Operator
	var cols []string
	var err error
	if cache != nil {
		op, err = cache.planFor(st)
		cols = cache.cols
	} else if op, err = e.planner(st).PlanSelect(s); err == nil {
		cols = columnNames(op)
	}
	if err != nil {
		return nil, nil, err
	}
	var prof *exec.Instrumented
	run := op
	if e.slowQueryNS.Load() > 0 {
		prof = exec.Instrument(op)
		run = prof
	}
	ec := e.execContext(ctx, params)
	rows, err := exec.Collect(ec, run)
	e.observeAnalytics(ec)
	if err != nil {
		return nil, prof, err
	}
	return &Result{Columns: cols, Rows: rows}, prof, nil
}

// columnNames lists a plan's output column names.
func columnNames(op exec.Operator) []string {
	cols := make([]string, op.Schema().Len())
	for i, c := range op.Schema().Columns {
		cols[i] = c.Name
	}
	return cols
}

// runSet applies a SET tunable. QUERY_TIMEOUT sets the per-statement
// deadline in milliseconds (0 disables it); SLOW_QUERY sets the
// slow-query-log threshold in milliseconds (0 disables the log);
// WAL_FSYNC switches a durable engine's sync policy
// (ALWAYS/INTERVAL/OFF); CHECKPOINT_EVERY sets the automatic checkpoint
// threshold in logged statements (0 disables automatic checkpoints). New
// values apply to statements issued after this one. SET is a runtime
// tunable, not state: it is never logged to the WAL.
func (e *Engine) runSet(s *sql.Set) (*Result, error) {
	if s.IsStr && s.Name != "WAL_FSYNC" {
		return nil, fmt.Errorf("SET %s: expected an integer value, got %q", s.Name, s.Str)
	}
	switch s.Name {
	case "QUERY_TIMEOUT":
		if s.Value < 0 {
			return nil, fmt.Errorf("SET QUERY_TIMEOUT: value must be >= 0 milliseconds, got %d", s.Value)
		}
		e.SetQueryTimeout(time.Duration(s.Value) * time.Millisecond)
		return &Result{}, nil
	case "SLOW_QUERY":
		if s.Value < 0 {
			return nil, fmt.Errorf("SET SLOW_QUERY: value must be >= 0 milliseconds, got %d", s.Value)
		}
		e.SetSlowQuery(time.Duration(s.Value) * time.Millisecond)
		return &Result{}, nil
	case "WAL_FSYNC":
		if !s.IsStr {
			return nil, fmt.Errorf("SET WAL_FSYNC: expected ALWAYS, INTERVAL or OFF")
		}
		p, err := wal.ParseFsyncPolicy(s.Str)
		if err != nil {
			return nil, fmt.Errorf("SET WAL_FSYNC: %v", err)
		}
		if e.dur.log == nil {
			return nil, fmt.Errorf("SET WAL_FSYNC: engine is not durable (no WAL directory configured)")
		}
		if err := e.dur.log.SetPolicy(p); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case "CHECKPOINT_EVERY":
		if s.Value < 0 {
			return nil, fmt.Errorf("SET CHECKPOINT_EVERY: value must be >= 0 statements, got %d", s.Value)
		}
		if e.dur.log == nil {
			return nil, fmt.Errorf("SET CHECKPOINT_EVERY: engine is not durable (no WAL directory configured)")
		}
		e.dur.every = int(s.Value)
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("SET: unknown setting %q (supported: QUERY_TIMEOUT, SLOW_QUERY, WAL_FSYNC, CHECKPOINT_EVERY)", s.Name)
	}
}

func (e *Engine) createTable(s *sql.CreateTable) (*Result, error) {
	if len(s.Cols) == 0 {
		return nil, fmt.Errorf("table %s has no columns", s.Name)
	}
	cols := make([]types.Column, len(s.Cols))
	seen := map[string]bool{}
	for i, c := range s.Cols {
		key := strings.ToLower(c.Name)
		if seen[key] {
			return nil, fmt.Errorf("table %s: duplicate column %q", s.Name, c.Name)
		}
		seen[key] = true
		cols[i] = types.Column{Qualifier: s.Name, Name: c.Name, Type: c.Type}
	}
	schema := types.NewSchema(cols...)
	var pk []int
	for _, name := range s.PK {
		idx, err := schema.Resolve("", name)
		if err != nil {
			return nil, fmt.Errorf("table %s primary key: %v", s.Name, err)
		}
		pk = append(pk, idx)
	}
	t, err := storage.NewTable(s.Name, schema, pk)
	if err != nil {
		return nil, err
	}
	if err := e.cat.CreateTable(t); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) createIndex(tx *txn, s *sql.CreateIndex) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	cols := make([]int, len(s.Cols))
	for i, name := range s.Cols {
		idx, err := t.Schema().Resolve("", name)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	if _, err := t.CreateIndex(s.Name, cols, s.Ordered); err != nil {
		return nil, err
	}
	tx.journal = append(tx.journal, undoOp{kind: undoCreateIndex, table: t, index: s.Name})
	return &Result{}, nil
}

func (e *Engine) createGraphView(s *sql.CreateGraphView) (*Result, error) {
	vtab, ok := e.cat.Table(s.VertexSource)
	if !ok {
		return nil, fmt.Errorf("unknown vertexes relational-source %q", s.VertexSource)
	}
	etab, ok := e.cat.Table(s.EdgeSource)
	if !ok {
		return nil, fmt.Errorf("unknown edges relational-source %q", s.EdgeSource)
	}
	toAttrs := func(ms []sql.NameMap) []catalog.AttrMap {
		out := make([]catalog.AttrMap, len(ms))
		for i, m := range ms {
			out[i] = catalog.AttrMap{Name: m.Name, Source: m.Source}
		}
		return out
	}
	gv, err := catalog.NewGraphView(s.Name, s.Directed, vtab, etab,
		toAttrs(s.VertexAttrs), toAttrs(s.EdgeAttrs))
	if err != nil {
		return nil, err
	}
	if err := e.cat.RegisterGraphView(gv); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (e *Engine) truncateTable(s *sql.TruncateTable) (*Result, error) {
	t, ok := e.cat.Table(s.Name)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Name)
	}
	if vs := e.cat.DependentViews(s.Name); len(vs) > 0 {
		return nil, fmt.Errorf("cannot truncate %s: it is a relational source of graph view %s",
			s.Name, vs[0].Name)
	}
	if e.cat.IsMatViewTable(s.Name) {
		return nil, fmt.Errorf("materialized view %s is read-only; modify its base table", s.Name)
	}
	if ds := e.cat.DependentMatViews(s.Name); len(ds) > 0 {
		return nil, fmt.Errorf("cannot truncate %s: it is the base of materialized view %s",
			s.Name, ds[0].Name)
	}
	// Swap in an empty table of the same definition; the old one stays
	// intact for the versions that hold it.
	if err := e.cat.DropTable(t.Name()); err != nil {
		return nil, err
	}
	if err := e.cat.CreateTable(t.Empty()); err != nil {
		return nil, err
	}
	return &Result{Affected: t.Len()}, nil
}

func (e *Engine) runShow(s *sql.Show, st *dbState) (*Result, error) {
	if s.What == "METRICS" {
		res := &Result{Columns: []string{"name", "value"}}
		for _, kv := range e.metrics.Snapshot(e.viewStatsAt(st)) {
			res.Rows = append(res.Rows, types.Row{types.NewString(kv.Name), types.NewInt(kv.Value)})
		}
		return res, nil
	}
	if s.What == "HEALTH" {
		res := &Result{Columns: []string{"name", "value"}}
		for _, p := range e.Health().Pairs() {
			res.Rows = append(res.Rows, types.Row{types.NewString(p[0]), types.NewString(p[1])})
		}
		return res, nil
	}
	res := &Result{Columns: []string{"name"}}
	var names []string
	switch s.What {
	case "TABLES":
		names = st.cat.Tables()
	case "MATERIALIZED VIEWS":
		names = st.cat.MatViews()
	default:
		names = st.cat.GraphViews()
	}
	for _, n := range names {
		res.Rows = append(res.Rows, types.Row{types.NewString(n)})
	}
	return res, nil
}
