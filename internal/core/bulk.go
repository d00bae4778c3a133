package core

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"grfusion/internal/sql"
	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// BulkLoad is the engine half of the COPY-style streaming ingest path: an
// exclusive write transaction that accepts pre-decoded row batches and
// publishes ONE new MVCC version at the end, no matter how many batches
// streamed in, so no batch pays a publish (table snapshots, version
// registry) or the first-write-after-publish table copy that follows one.
// Graph-view maintenance is the same either way — each row appends to the
// view's topology delta (graph/topology.go) — and the one publish at Close
// folds the delta into a new main if it outgrew the last one.
//
// Semantics are batch-atomic, not load-atomic, mirroring durability:
// every Append is applied as one implicit transaction and then logged to
// the WAL (when durable) — a failed batch rolls back only itself, earlier
// batches stay. Crash recovery mid-load replays exactly the batches that
// were logged, so the live engine keeps them too; an aborted stream ends
// with the same prefix a crash at that point would have reconstructed.
// MVCC readers are unaffected throughout (they pin the previous version);
// other writers queue on the engine lock until Close.
type BulkLoad struct {
	e *Engine
	t *storage.Table

	table     string
	positions []int // supplied column -> schema position
	identity  bool  // positions are 0..len-1 over the full schema: rows insert as-is
	width     int   // values per incoming row

	// colList is the parenthesized column list of the logged INSERT text
	// ("" when loading full rows); texts caches the generated statement
	// per batch size so a steady stream pays the build once.
	colList string
	texts   map[int]string
	stmt    *sql.Insert // minimal statement for the WAL allocation pin

	applied int
	batches int
	closed  bool
}

// gcHold pauses the collector across overlapping bulk loads (refcounted,
// process-global like the collector itself): a load's retained rows force
// the heap up no matter what, so concurrent mark cycles during the stream
// only add assist stalls on the ingest path — measured ~25% of load wall
// time — to collect a handful of per-batch scraps. The first load stores
// the GOGC the process was running with and the last one restores it,
// triggering the deferred cycle.
var gcHold struct {
	sync.Mutex
	loads int
	gogc  int
}

func gcPause() {
	gcHold.Lock()
	defer gcHold.Unlock()
	if gcHold.loads == 0 {
		gcHold.gogc = debug.SetGCPercent(-1)
	}
	gcHold.loads++
}

func gcResume() {
	gcHold.Lock()
	defer gcHold.Unlock()
	gcHold.loads--
	if gcHold.loads == 0 && gcHold.gogc != -1 {
		debug.SetGCPercent(gcHold.gogc)
	}
}

// BeginBulk opens a bulk load into table. cols maps incoming row values
// to columns (nil/empty = full rows in schema order); expectRows, when
// known, presizes the row array and primary-key index so the stream never
// pays incremental growth. The returned load holds the engine's exclusive
// write lock until Close — Append and Close must be called from a single
// loader goroutine, and abandoning a BulkLoad without Close deadlocks all
// future writers.
func (e *Engine) BeginBulk(table string, cols []string, expectRows int) (*BulkLoad, error) {
	lw := time.Now()
	e.mu.Lock()
	e.metrics.LockWriteWaitNS.Add(time.Since(lw).Nanoseconds())
	b, err := e.beginBulkLocked(table, cols, expectRows)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	gcPause()
	return b, nil
}

func (e *Engine) beginBulkLocked(table string, cols []string, expectRows int) (*BulkLoad, error) {
	t, ok := e.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", table)
	}
	if e.cat.IsMatViewTable(table) {
		return nil, fmt.Errorf("materialized view %s is read-only; bulk load its base table", table)
	}
	schema := t.Schema()
	b := &BulkLoad{e: e, t: t, table: t.Name(), texts: map[int]string{},
		stmt: &sql.Insert{Table: t.Name()}}
	if len(cols) == 0 {
		b.width = schema.Len()
		b.positions = make([]int, b.width)
		for i := range b.positions {
			b.positions[i] = i
		}
		b.identity = true
	} else {
		b.width = len(cols)
		b.positions = make([]int, len(cols))
		b.identity = len(cols) == schema.Len()
		for i, c := range cols {
			idx, err := schema.Resolve("", c)
			if err != nil {
				return nil, err
			}
			b.positions[i] = idx
			if idx != i {
				b.identity = false
			}
		}
		b.colList = " (" + strings.Join(cols, ", ") + ")"
	}
	t.Reserve(expectRows)
	for _, gv := range e.cat.DependentViews(t.Name()) {
		gv.ReserveFor(t.Name(), expectRows)
	}
	e.metrics.BulkLoads.Inc()
	return b, nil
}

// textFor returns the INSERT statement logged for an n-row batch:
// "INSERT INTO t (cols) VALUES (?,...),(?,...)". Replay re-prepares this
// text and binds the batch's flattened parameters, so a logged batch
// rides the existing prepared-DML recovery path unchanged.
func (b *BulkLoad) textFor(n int) string {
	if s, ok := b.texts[n]; ok {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(b.table) + len(b.colList) + 24 + n*(2*b.width+3))
	sb.WriteString("INSERT INTO ")
	sb.WriteString(b.table)
	sb.WriteString(b.colList)
	sb.WriteString(" VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for j := 0; j < b.width; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteByte('?')
		}
		sb.WriteByte(')')
	}
	s := sb.String()
	b.texts[n] = s
	return s
}

// Append applies one batch atomically: inserted with full graph-view and
// materialized-view maintenance, like any INSERT — except no expression
// evaluation runs and nothing publishes — then WAL-logged (durable
// engines). Values are stored as given (the table coerces types in place),
// so the batch slices must not be reused by the caller. On error, in the
// batch or in its WAL append, the batch is rolled back (journal inverses
// replayed) and the load remains usable for further batches.
func (b *BulkLoad) Append(rows []types.Row) (int, error) {
	if b.closed {
		return 0, fmt.Errorf("bulk load into %s is closed", b.table)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	e := b.e
	for _, r := range rows {
		if len(r) != b.width {
			return 0, fmt.Errorf("bulk load into %s: row has %d values, want %d",
				b.table, len(r), b.width)
		}
	}
	var text string
	var params []types.Value
	if e.dur.log != nil {
		text = b.textFor(len(rows))
		params = make([]types.Value, 0, len(rows)*b.width)
		for _, r := range rows {
			params = append(params, r...)
		}
	}
	if _, err := e.commitLocked(b.stmt, text, params, func(tx *txn) (*Result, error) {
		return nil, b.insertBatch(tx, rows)
	}); err != nil {
		return 0, err
	}
	b.applied += len(rows)
	b.batches++
	e.metrics.BulkBatches.Inc()
	e.metrics.BulkRows.Add(int64(len(rows)))
	return len(rows), nil
}

// insertBatch inserts one batch inside tx, stopping at the first failing
// row; commitLocked then undoes the whole batch.
func (b *BulkLoad) insertBatch(tx *txn, rows []types.Row) error {
	// Presize the undo journal: letting append double its way up would
	// re-zero a fresh, larger array a dozen times per batch.
	tx.journal = make([]undoOp, 0, len(rows))
	width := b.t.Schema().Len()
	for _, r := range rows {
		row := r
		if !b.identity {
			row = make(types.Row, width)
			for i, v := range r {
				row[b.positions[i]] = v
			}
		}
		if _, err := tx.insertRow(b.t, row); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the number of rows applied so far.
func (b *BulkLoad) Rows() int { return b.applied }

// Width returns the number of values each incoming row must carry.
func (b *BulkLoad) Width() int { return b.width }

// Close ends the load, publishes the accumulated batches as one new MVCC
// version (when any applied), and releases the engine write lock. Close
// is idempotent; the first call returns the row count.
func (b *BulkLoad) Close() (*Result, error) {
	if b.closed {
		return nil, fmt.Errorf("bulk load into %s is closed", b.table)
	}
	b.closed = true
	if b.applied > 0 {
		b.e.publishLocked()
	}
	b.e.mu.Unlock()
	gcResume()
	return &Result{Affected: b.applied}, nil
}
