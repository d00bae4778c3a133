// Package grfusion is an embeddable in-memory relational database engine
// with native graph support — a from-scratch Go reproduction of
// "Extending In-Memory Relational Database Engines with Native Graph
// Support" (Hassan, Kuznetsova, Jeong, Aref, Sadoghi — EDBT 2018).
//
// The engine speaks a SQL dialect extended with the paper's graph
// constructs: CREATE GRAPH VIEW materializes a native adjacency-list
// topology over relational sources (attributes stay relational, reached
// through tuple pointers), and queries traverse it with the PATHS /
// VERTEXES / EDGES constructs, mixing graph operators and relational
// operators in one query execution pipeline:
//
//	db := grfusion.Open(grfusion.Config{})
//	db.MustExec(`CREATE TABLE Users (uid BIGINT PRIMARY KEY, name VARCHAR)`)
//	db.MustExec(`CREATE TABLE Friends (fid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
//	// ... INSERT data ...
//	db.MustExec(`CREATE UNDIRECTED GRAPH VIEW Social
//	    VERTEXES(ID = uid, name = name) FROM Users
//	    EDGES(ID = fid, FROM = a, TO = b) FROM Friends`)
//	res, err := db.Query(`
//	    SELECT PS.EndVertex.name FROM Users U, Social.Paths PS
//	    WHERE U.name = 'ann' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`)
//
// Graph views stay consistent under DML: inserts, updates, and deletes on
// the relational sources maintain the topology inside the same statement.
package grfusion

import (
	"context"
	"fmt"
	"io"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/plan"
	"grfusion/internal/types"
	"grfusion/internal/wal"
)

// Value is one SQL value in a result row.
type Value = types.Value

// Row is one result tuple.
type Row = types.Row

// Kind identifies a Value's runtime type.
type Kind = types.Kind

// Value kinds.
const (
	KindNull   = types.KindNull
	KindBool   = types.KindBool
	KindInt    = types.KindInt
	KindFloat  = types.KindFloat
	KindString = types.KindString
	KindVertex = types.KindVertex
	KindEdge   = types.KindEdge
	KindPath   = types.KindPath
)

// Config tunes an engine instance. The zero value is a good default.
type Config struct {
	// MemLimit bounds the intermediate-result memory of a single statement
	// in bytes (hash tables, sort buffers, materialized join inputs).
	// Zero means unlimited.
	MemLimit int64
	// DisablePushdown turns off pushing path predicates into all-paths
	// traversals (§6.2 of the paper); used by the paper's ablation
	// experiments. Visit-once traversals push regardless, since there the
	// predicates pick the traversed sub-graph.
	DisablePushdown bool
	// DisableLengthInference turns off path-length inference (§6.1).
	DisableLengthInference bool
	// QueryTimeout bounds each statement's wall clock; statements that
	// exceed it abort with ErrTimeout. Zero disables it. Adjustable at
	// runtime with SET QUERY_TIMEOUT = <milliseconds>.
	QueryTimeout time.Duration

	// WALDir enables durability: mutating statements are logged to a
	// write-ahead log in this directory before they apply, and periodic
	// checkpoints bound recovery time. A database opened on a non-empty
	// WALDir recovers its state from the latest checkpoint plus the WAL
	// tail. Requires OpenDurable; Open rejects a Config with WALDir set.
	WALDir string
	// WALFsync selects the log's fsync policy: "always" (default — every
	// logged statement is synced before it is acknowledged), "interval"
	// (background sync every WALFsyncInterval), or "off" (the OS decides).
	// Adjustable at runtime with SET WAL_FSYNC = <policy>.
	WALFsync string
	// WALFsyncInterval is the background sync period under the "interval"
	// policy (default 50ms).
	WALFsyncInterval time.Duration
	// CheckpointEvery takes an automatic checkpoint after this many logged
	// statements (0 = engine default, negative = only explicit
	// checkpoints). Adjustable with SET CHECKPOINT_EVERY = <n>.
	CheckpointEvery int

	// WALSoftFreeBytes / WALHardFreeBytes are disk-space watermarks checked
	// on the WAL append path of a durable database. Free space under the
	// soft mark forces a checkpoint + WAL truncation to give space back;
	// under the hard mark the database degrades to read-only (writes fail
	// fast with ErrDegraded, reads keep serving) until the background
	// prober heals it. Zero disables a watermark.
	WALSoftFreeBytes int64
	WALHardFreeBytes int64
	// HealBase / HealMax bound the self-healing probe's capped exponential
	// backoff after the database degrades (defaults 25ms / 2s).
	HealBase time.Duration
	HealMax  time.Duration
}

// RecoveryInfo describes what OpenDurable recovered from disk.
type RecoveryInfo = core.RecoveryInfo

// Typed lifecycle errors, matchable with errors.Is on any statement error.
var (
	// ErrTimeout reports a statement that exceeded its deadline.
	ErrTimeout = core.ErrTimeout
	// ErrCanceled reports a statement aborted by context cancellation.
	ErrCanceled = core.ErrCanceled
	// ErrMemLimit reports the per-statement intermediate-memory limit.
	ErrMemLimit = core.ErrMemLimit
	// ErrQueryPanic reports a statement aborted by a recovered panic.
	ErrQueryPanic = core.ErrQueryPanic
	// ErrDegraded reports a mutating statement rejected because the durable
	// database is in degraded read-only mode (broken WAL or disk-space hard
	// watermark). It is terminal, not retryable: the self-healing prober
	// restores read-write in the background, and reads keep serving in the
	// meantime. Distinct from admission-control shedding.
	ErrDegraded = core.ErrDegraded
)

// Health describes a durable database's durability state: healthy,
// degraded (read-only), or healing. See DB.Health.
type Health = core.Health

// Durability health states, compared against Health.State.
const (
	StateHealthy  = core.StateHealthy
	StateDegraded = core.StateDegraded
	StateHealing  = core.StateHealing
)

// DB is one in-memory database instance. It is safe for concurrent use;
// statements execute serially (the VoltDB execution model).
type DB struct {
	engine   *core.Engine
	recovery *RecoveryInfo
}

func options(cfg Config) (core.Options, error) {
	opts := core.Options{
		MemLimit:     cfg.MemLimit,
		QueryTimeout: cfg.QueryTimeout,
		Plan: plan.Options{
			DisablePushdown:        cfg.DisablePushdown,
			DisableLengthInference: cfg.DisableLengthInference,
		},
	}
	opts.Durability.Dir = cfg.WALDir
	opts.Durability.FsyncInterval = cfg.WALFsyncInterval
	opts.Durability.CheckpointEvery = cfg.CheckpointEvery
	opts.Durability.SoftFreeBytes = cfg.WALSoftFreeBytes
	opts.Durability.HardFreeBytes = cfg.WALHardFreeBytes
	opts.Durability.HealBase = cfg.HealBase
	opts.Durability.HealMax = cfg.HealMax
	if cfg.WALFsync != "" {
		p, err := wal.ParseFsyncPolicy(cfg.WALFsync)
		if err != nil {
			return opts, err
		}
		opts.Durability.Fsync = p
	}
	return opts, nil
}

// Open creates a new, empty, purely in-memory database. For a durable
// database (Config.WALDir set) use OpenDurable, which can fail and
// reports what it recovered; Open panics on a durable Config so the two
// modes cannot be mixed up silently.
func Open(cfg Config) *DB {
	if cfg.WALDir != "" {
		panic("grfusion: Config.WALDir is set — use OpenDurable for a durable database")
	}
	opts, err := options(cfg)
	if err != nil {
		panic("grfusion: " + err.Error())
	}
	return &DB{engine: core.New(opts)}
}

// OpenDurable opens a database backed by a write-ahead log in
// cfg.WALDir, recovering any state a previous process left there: it
// loads the latest checkpoint, replays the WAL tail (truncating a torn
// final record), and rebuilds graph views from the recovered relations.
// The returned RecoveryInfo says what was recovered; it is nil when
// cfg.WALDir is empty (a plain in-memory database).
//
// Stop a durable database with Shutdown (final checkpoint) or Close
// (WAL synced and closed; recovery replays the tail on next open).
func OpenDurable(cfg Config) (*DB, *RecoveryInfo, error) {
	opts, err := options(cfg)
	if err != nil {
		return nil, nil, err
	}
	eng, info, err := core.Open(opts)
	if err != nil {
		return nil, nil, err
	}
	return &DB{engine: eng, recovery: info}, info, nil
}

// Recovery returns what OpenDurable recovered, nil for an in-memory
// database.
func (db *DB) Recovery() *RecoveryInfo { return db.recovery }

// Checkpoint writes a durable snapshot (temp file, fsync, atomic rename)
// and truncates the WAL. It fails on a non-durable database.
func (db *DB) Checkpoint() error { return db.engine.Checkpoint() }

// Health reports the durability health without taking the engine's
// statement lock, so it answers even while a write is stuck on a sick
// disk. A non-durable database is always healthy (and never "ready" in
// the durable sense — Health.Durable is false).
func (db *DB) Health() Health { return db.engine.Health() }

// Shutdown gracefully stops a durable database: final checkpoint, WAL
// close. On an in-memory database it is Close.
func (db *DB) Shutdown() error { return db.engine.Shutdown() }

// Close stops background work (the self-healing prober) and, on a
// durable database, syncs and closes the WAL without a final checkpoint.
// An in-memory database remains usable afterwards; a durable one keeps
// serving reads but rejects further mutations.
func (db *DB) Close() { db.engine.Close() }

// Result holds the outcome of one statement: its result columns (empty
// for DDL/DML), the result tuples of a query, and the rows DML touched.
type Result = types.Result

// Exec runs a single SQL statement (DDL, DML, or query).
func (db *DB) Exec(query string) (*Result, error) { return db.engine.Execute(query) }

// ExecContext is Exec under a cancellation context: ctx's deadline or
// cancellation aborts the statement with ErrTimeout/ErrCanceled.
func (db *DB) ExecContext(ctx context.Context, query string) (*Result, error) {
	return db.engine.ExecuteContext(ctx, query)
}

// MustExec runs a statement and panics on error; intended for setup code
// and examples.
func (db *DB) MustExec(query string) *Result {
	r, err := db.Exec(query)
	if err != nil {
		panic(fmt.Sprintf("grfusion: %v", err))
	}
	return r
}

// Query is Exec with the intent of reading rows; it errors when the
// statement produces no result set.
func (db *DB) Query(query string) (*Result, error) {
	r, err := db.Exec(query)
	if err != nil {
		return nil, err
	}
	if r.Columns == nil {
		return nil, fmt.Errorf("statement returned no rows: %s", query)
	}
	return r, nil
}

// QueryScalar runs a query expected to return exactly one value.
func (db *DB) QueryScalar(query string) (Value, error) {
	r, err := db.Query(query)
	if err != nil {
		return types.Null(), err
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return types.Null(), fmt.Errorf("expected a single value, got %d row(s)", len(r.Rows))
	}
	return r.Rows[0][0], nil
}

// ExecScript runs a semicolon-separated script, stopping at the first
// error.
func (db *DB) ExecScript(script string) error {
	_, err := db.engine.ExecuteScript(script)
	return err
}

// Explain renders the physical query execution pipeline of a SELECT.
func (db *DB) Explain(query string) (string, error) { return db.engine.Explain(query) }

// Snapshot serializes the whole database (schema, rows, indexes, and graph
// view definitions) to w. Topologies are derived state and are rebuilt on
// Restore.
func (db *DB) Snapshot(w io.Writer) error { return db.engine.Snapshot(w) }

// Restore loads a Snapshot into an empty database.
func (db *DB) Restore(r io.Reader) error { return db.engine.Restore(r) }

// Engine exposes the underlying engine for advanced integrations (the
// benchmark harness uses it to toggle planner options between runs).
func (db *DB) Engine() *core.Engine { return db.engine }

// Stmt is a prepared, parameterized SELECT: parsed and planned once,
// executed many times with different `?` values — the VoltDB
// stored-procedure execution model the paper's system inherits. A Stmt is
// invalidated by DDL that drops objects its plan uses.
type Stmt struct {
	p *core.Prepared
}

// Prepare compiles a SELECT containing `?` placeholders.
func (db *DB) Prepare(query string) (*Stmt, error) {
	p, err := db.engine.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *Stmt) NumParams() int { return s.p.NumParams() }

// Query executes the prepared plan. Arguments may be Go ints, floats,
// strings, bools, nil, or Values.
func (s *Stmt) Query(args ...any) (*Result, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query under a cancellation context.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*Result, error) {
	params := make([]Value, len(args))
	for i, a := range args {
		v, err := ToValue(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %v", i+1, err)
		}
		params[i] = v
	}
	return s.p.QueryContext(ctx, params...)
}

// DMLStmt is a prepared, parameterized INSERT/UPDATE/DELETE.
type DMLStmt struct {
	p *core.PreparedDML
}

// PrepareDML parses an INSERT, UPDATE or DELETE containing `?`
// placeholders for repeated execution.
func (db *DB) PrepareDML(query string) (*DMLStmt, error) {
	p, err := db.engine.PrepareDML(query)
	if err != nil {
		return nil, err
	}
	return &DMLStmt{p: p}, nil
}

// NumParams returns the number of `?` placeholders.
func (s *DMLStmt) NumParams() int { return s.p.NumParams() }

// Exec runs the prepared DML with the given arguments.
func (s *DMLStmt) Exec(args ...any) (*Result, error) {
	params := make([]Value, len(args))
	for i, a := range args {
		v, err := ToValue(a)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %v", i+1, err)
		}
		params[i] = v
	}
	return s.p.Exec(params...)
}

// ToValue converts a Go value into an engine Value.
func ToValue(a any) (Value, error) {
	switch v := a.(type) {
	case nil:
		return types.Null(), nil
	case Value:
		return v, nil
	case bool:
		return types.NewBool(v), nil
	case int:
		return types.NewInt(int64(v)), nil
	case int32:
		return types.NewInt(int64(v)), nil
	case int64:
		return types.NewInt(v), nil
	case float32:
		return types.NewFloat(float64(v)), nil
	case float64:
		return types.NewFloat(v), nil
	case string:
		return types.NewString(v), nil
	default:
		return types.Null(), fmt.Errorf("unsupported parameter type %T", a)
	}
}
