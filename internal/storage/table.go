// Package storage implements the in-memory row store underneath the engine.
//
// Tables are slotted: every tuple lives in a stable slot addressed by a
// RowID that never changes for the lifetime of the tuple. RowIDs are the
// "main-memory tuple pointers" of the paper (§3.2) — a graph view's
// vertexes and edges hold RowIDs into their relational sources and
// dereference them in O(1), and the relational side can navigate back into
// the graph through the vertex hash map. Slots freed by deletion are
// recycled through a free list.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"grfusion/internal/types"
)

// RowID addresses one tuple slot in a table. The zero RowID is invalid;
// slot numbering starts at 1 so that RowID(0) can mean "no tuple".
type RowID uint64

// InvalidRowID is the zero, never-valid row id.
const InvalidRowID RowID = 0

// Table is an in-memory relation with optional primary key and secondary
// indexes. Mutations are not internally synchronized: the engine
// serializes all writers (VoltDB's single-threaded partition execution
// model). Readers that run without the engine lock never touch the live
// row array — they pin an immutable TableSnap — so the only live state
// they share with writers is the version counter (atomic), the indexes —
// the primary key included — (per-index RWMutex), and the index registry
// (idxMu).
type Table struct {
	name   string
	schema *types.Schema

	// rows[i] is the tuple in slot i+1, or nil if the slot is free.
	rows []types.Row
	free []RowID
	live int

	// snap caches the latest snapshot; rows[:sharedLen] is aliased by it,
	// so in-place writes below sharedLen copy the array first
	// (ensurePrivate). Both are writer-side state guarded by the engine
	// write lock.
	snap      *TableSnap
	sharedLen int

	pkCols []int  // column indexes of the primary key; empty if none
	pk     *Index // the built-in unique index over pkCols; nil if none

	// indexes registers the secondary indexes, sorted by lower-cased name
	// so that every walk — maintenance, FindIndexOn, Indexes — is
	// deterministic without sorting. idxMu guards it: lock-free readers
	// resolve access paths (FindIndexOn) concurrently with CREATE/DROP INDEX.
	idxMu   sync.RWMutex
	indexes []*Index

	// version counts mutations; cursors use it to detect invalidation and
	// pinned index scans use it to detect concurrent writes. Mutators bump
	// it BEFORE touching rows/pk/indexes so a reader that observes
	// unchanged versions around an index read is guaranteed the index
	// matched its snapshot.
	version atomic.Uint64
}

// NewTable creates an empty table. pkCols lists the positions of the
// primary-key columns within the schema (may be empty for no key).
func NewTable(name string, schema *types.Schema, pkCols []int) (*Table, error) {
	for _, c := range pkCols {
		if c < 0 || c >= schema.Len() {
			return nil, fmt.Errorf("table %s: primary key column index %d out of range", name, c)
		}
	}
	t := &Table{name: name, schema: schema, pkCols: append([]int(nil), pkCols...)}
	if len(pkCols) > 0 {
		t.pk = newPrimaryKey(schema, t.pkCols)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema. Callers must not mutate it.
func (t *Table) Schema() *types.Schema { return t.schema }

// PrimaryKeyColumns returns the primary-key column positions (nil if none).
func (t *Table) PrimaryKeyColumns() []int { return t.pkCols }

// Len returns the number of live tuples.
func (t *Table) Len() int { return t.live }

// Version returns the mutation counter.
func (t *Table) Version() uint64 { return t.version.Load() }

// AllocState describes the deterministic row-id allocator: the slot a
// fresh insert would extend into and the depth of the LIFO free list.
// The WAL pins this pair per logged statement so crash-recovery replay
// can prove it assigns the same row ids the original execution did.
func (t *Table) AllocState() (nextSlot RowID, freeDepth int) {
	return RowID(len(t.rows) + 1), len(t.free)
}

// Reserve presizes the table for about n additional tuples: the row array
// grows to its final capacity once and the primary-key index rehashes once,
// instead of both growing incrementally every few thousand inserts. Bulk
// ingest calls it with the loader's row-count hint; it changes no visible
// state. Requires the writer lock, like any mutator.
func (t *Table) Reserve(n int) {
	if n <= 0 {
		return
	}
	if need := len(t.rows) + n; need > cap(t.rows) {
		rows := make([]types.Row, len(t.rows), need)
		copy(rows, t.rows)
		t.rows = rows
		// A live snapshot keeps aliasing the old array; the fresh copy is
		// private, so in-place writes below the old shared length no longer
		// need a copy-on-write.
		t.sharedLen = 0
	}
	if t.pk != nil {
		t.pk.mu.Lock()
		t.pk.unique.reserve(n)
		t.pk.mu.Unlock()
	}
}

func (t *Table) checkRow(row types.Row) error {
	if len(row) != t.schema.Len() {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.name, len(row), t.schema.Len())
	}
	for i, v := range row {
		col := t.schema.Columns[i]
		if v.IsNull() || v.Kind == col.Type {
			continue
		}
		cv, err := types.CoerceTo(v, col.Type)
		if err != nil {
			return fmt.Errorf("table %s column %s: %v", t.name, col.Name, err)
		}
		row[i] = cv
	}
	return nil
}

// Insert adds a tuple and returns its stable RowID. It fails on primary-key
// violation without modifying the table.
func (t *Table) Insert(row types.Row) (RowID, error) {
	if err := t.checkRow(row); err != nil {
		return InvalidRowID, err
	}
	if t.pk != nil {
		if _, dup := t.pk.unique.lookupRow(row); dup {
			return InvalidRowID, fmt.Errorf("table %s: duplicate primary key %s",
				t.name, describeKey(row, t.pkCols))
		}
	}
	t.version.Add(1)
	var id RowID
	if n := len(t.free); n > 0 {
		id = t.free[n-1]
		t.free = t.free[:n-1]
		t.ensurePrivate(int(id - 1))
		t.rows[id-1] = row
	} else {
		t.rows = append(t.rows, row)
		id = RowID(len(t.rows))
	}
	if t.pk != nil {
		t.pk.insert(row, id)
	}
	for _, ix := range t.indexes {
		ix.insert(row, id)
	}
	t.live++
	return id, nil
}

// Get returns the tuple in the given slot, or false if the slot is free or
// out of range. The returned row must not be mutated by callers.
func (t *Table) Get(id RowID) (types.Row, bool) {
	if id == InvalidRowID || int(id) > len(t.rows) {
		return nil, false
	}
	r := t.rows[id-1]
	return r, r != nil
}

// RowValues implements the tuple-source interface used by the expression
// evaluator to dereference tuple pointers held by graph views.
func (t *Table) RowValues(id uint64) (types.Row, bool) { return t.Get(RowID(id)) }

// LookupPK returns the RowID of the tuple with the given primary-key
// values, or InvalidRowID if absent or the table has no primary key.
func (t *Table) LookupPK(key types.Row) RowID {
	if t.pk == nil {
		return InvalidRowID
	}
	t.pk.mu.RLock()
	defer t.pk.mu.RUnlock()
	id, _ := t.pk.unique.lookupKey(key) // a miss yields InvalidRowID
	return id
}

// Update replaces the tuple in the given slot, maintaining the primary key
// and all secondary indexes. It fails if the new key collides with another
// tuple's.
func (t *Table) Update(id RowID, row types.Row) error {
	old, ok := t.Get(id)
	if !ok {
		return fmt.Errorf("table %s: update of dead row id %d", t.name, id)
	}
	if err := t.checkRow(row); err != nil {
		return err
	}
	keyMoved := t.pk != nil && !t.pk.unique.sameKey(old, row)
	if keyMoved {
		if _, dup := t.pk.unique.lookupRow(row); dup {
			return fmt.Errorf("table %s: duplicate primary key %s",
				t.name, describeKey(row, t.pkCols))
		}
	}
	t.version.Add(1)
	if keyMoved {
		t.pk.remove(old, id)
		t.pk.insert(row, id)
	}
	t.ensurePrivate(int(id - 1))
	t.rows[id-1] = row
	for _, ix := range t.indexes {
		ix.update(old, row, id)
	}
	return nil
}

// Delete removes the tuple in the given slot and recycles it.
func (t *Table) Delete(id RowID) error {
	old, ok := t.Get(id)
	if !ok {
		return fmt.Errorf("table %s: delete of dead row id %d", t.name, id)
	}
	t.version.Add(1)
	if t.pk != nil {
		t.pk.remove(old, id)
	}
	for _, ix := range t.indexes {
		ix.remove(old, id)
	}
	t.ensurePrivate(int(id - 1))
	t.rows[id-1] = nil
	t.free = append(t.free, id)
	t.live--
	return nil
}

// UndoInsert exactly reverses the table's most recent Insert of id.
// extended reports whether that Insert grew the row array (the free list
// was empty); the caller captures it from AllocState before inserting. A
// reusing insert is reversed by a plain Delete — the slot returns to the
// top of the LIFO free list it was popped from — but an extending insert
// must also shrink the row array, or an aborted statement would leave an
// allocator trace (one extra slot plus one hole) that crash-recovery
// replay, which only ever sees applied statements, can never reproduce.
func (t *Table) UndoInsert(id RowID, extended bool) error {
	if err := t.Delete(id); err != nil {
		return err
	}
	if !extended {
		return nil
	}
	if int(id) != len(t.rows) || len(t.free) == 0 || t.free[len(t.free)-1] != id {
		return fmt.Errorf("table %s: undo of extending insert %d out of order", t.name, id)
	}
	t.free = t.free[:len(t.free)-1]
	t.rows = t.rows[:len(t.rows)-1]
	return nil
}

// FreeList returns a copy of the free list in LIFO order (the slot a
// fresh insert would reuse is last). Snapshots persist it so a restored
// table keeps allocating exactly like the original.
func (t *Table) FreeList() []RowID {
	return append([]RowID(nil), t.free...)
}

// RestoreSlots loads an exact slot image into an empty table: rows[i]
// becomes the tuple in slot i+1, nil entries are holes, and free is the
// LIFO free list covering exactly those holes. Preserving slot numbers
// and free-list order keeps RowIDs — the main-memory tuple pointers graph
// views hold (§3.2) — and every future allocation of the deterministic
// allocator identical to the table the image was taken from, which WAL
// replay depends on.
func (t *Table) RestoreSlots(rows []types.Row, free []RowID) error {
	if t.live > 0 || len(t.rows) > 0 || len(t.free) > 0 {
		return fmt.Errorf("table %s: slot restore into a non-empty table", t.name)
	}
	holes := make(map[RowID]bool)
	for i, r := range rows {
		if r == nil {
			holes[RowID(i+1)] = true
		}
	}
	if len(free) != len(holes) {
		return fmt.Errorf("table %s: free list has %d entries for %d holes", t.name, len(free), len(holes))
	}
	for _, id := range free {
		if !holes[id] {
			return fmt.Errorf("table %s: free-list slot %d is not a hole", t.name, id)
		}
		delete(holes, id) // each hole exactly once
	}
	t.version.Add(1)
	for i, row := range rows {
		if row == nil {
			continue
		}
		if err := t.checkRow(row); err != nil {
			return err
		}
		if t.pk != nil {
			if _, dup := t.pk.unique.lookupRow(row); dup {
				return fmt.Errorf("table %s: duplicate primary key %s",
					t.name, describeKey(row, t.pkCols))
			}
			t.pk.insert(row, RowID(i+1))
		}
		for _, ix := range t.indexes {
			ix.insert(row, RowID(i+1))
		}
		t.live++
	}
	t.rows = rows
	t.sharedLen = 0
	t.free = append([]RowID(nil), free...)
	return nil
}

// Scan calls fn for every live tuple in slot order until fn returns false.
// fn must not mutate the table.
func (t *Table) Scan(fn func(id RowID, row types.Row) bool) {
	for i, r := range t.rows {
		if r == nil {
			continue
		}
		if !fn(RowID(i+1), r) {
			return
		}
	}
}

// Empty returns a new, empty table with t's name, schema, primary key and
// secondary index definitions; t itself is not touched. TRUNCATE swaps it
// in for t.
func (t *Table) Empty() *Table {
	nt := &Table{name: t.name, schema: t.schema, pkCols: t.pkCols}
	if t.pk != nil {
		nt.pk = newPrimaryKey(t.schema, t.pkCols)
	}
	for _, ix := range t.Indexes() {
		nt.indexes = append(nt.indexes, newIndex(ix.Name, ix.Cols, ix.Ordered))
	}
	return nt
}

// ApproxBytes estimates the resident size of the table's tuples, used by
// the memory-accounting experiments (Table 3 in DESIGN.md).
func (t *Table) ApproxBytes() int64 {
	var total int64
	for _, r := range t.rows {
		if r == nil {
			continue
		}
		total += RowApproxBytes(r)
	}
	return total
}

// RowApproxBytes estimates the resident size of one tuple.
func RowApproxBytes(r types.Row) int64 {
	const valueHeader = 48 // sizeof(types.Value) rounded up
	total := int64(len(r)) * valueHeader
	for _, v := range r {
		if v.Kind == types.KindString {
			total += int64(len(v.S))
		}
	}
	return total
}

func describeKey(row types.Row, cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = row[c].String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// indexPos returns the registry position of the index named name (or where
// it would be inserted) and whether it is present.
func (t *Table) indexPos(name string) (int, bool) {
	lname := strings.ToLower(name)
	i := sort.Search(len(t.indexes), func(i int) bool {
		return strings.ToLower(t.indexes[i].name) >= lname
	})
	return i, i < len(t.indexes) && strings.ToLower(t.indexes[i].name) == lname
}

// CreateIndex builds a secondary index named name over the given column
// positions. ordered selects a sorted index supporting range scans;
// otherwise a hash index is built. Building scans the current contents.
func (t *Table) CreateIndex(name string, cols []int, ordered bool) (*Index, error) {
	pos, dup := t.indexPos(name)
	if dup {
		return nil, fmt.Errorf("table %s: index %s already exists", t.name, name)
	}
	for _, c := range cols {
		if c < 0 || c >= t.schema.Len() {
			return nil, fmt.Errorf("table %s: index column %d out of range", t.name, c)
		}
	}
	ix := newIndex(name, cols, ordered)
	t.Scan(func(id RowID, row types.Row) bool {
		ix.insert(row, id)
		return true
	})
	t.idxMu.Lock()
	t.indexes = append(t.indexes, nil)
	copy(t.indexes[pos+1:], t.indexes[pos:])
	t.indexes[pos] = ix
	t.idxMu.Unlock()
	return ix, nil
}

// DropIndex removes the named index, reporting whether it existed.
func (t *Table) DropIndex(name string) bool {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	pos, ok := t.indexPos(name)
	if ok {
		t.indexes = append(t.indexes[:pos], t.indexes[pos+1:]...)
	}
	return ok
}

// IndexInfo describes one secondary index for catalog introspection and
// snapshots.
type IndexInfo struct {
	Name    string
	Cols    []int
	Ordered bool
}

// Indexes lists the table's secondary indexes sorted by name.
func (t *Table) Indexes() []IndexInfo {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	out := make([]IndexInfo, 0, len(t.indexes))
	for _, ix := range t.indexes {
		out = append(out, IndexInfo{Name: ix.name, Cols: append([]int(nil), ix.cols...), Ordered: ix.ordered})
	}
	return out
}

// Index returns the named secondary index, if present.
func (t *Table) Index(name string) (*Index, bool) {
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	if pos, ok := t.indexPos(name); ok {
		return t.indexes[pos], true
	}
	return nil, false
}

// FindIndexOn returns an index whose columns are exactly cols. A point
// request (needOrdered=false) prefers the primary key, then a hash index,
// and settles for an ordered index, which serves point lookups too; a
// range request takes only an ordered index.
func (t *Table) FindIndexOn(cols []int, needOrdered bool) (*Index, bool) {
	if !needOrdered && t.pk != nil && sameCols(t.pk.cols, cols) {
		return t.pk, true
	}
	t.idxMu.RLock()
	defer t.idxMu.RUnlock()
	var fallback *Index
	for _, ix := range t.indexes {
		if !sameCols(ix.cols, cols) {
			continue
		}
		if ix.ordered == needOrdered {
			return ix, true
		}
		if !needOrdered {
			fallback = ix
		}
	}
	return fallback, fallback != nil
}

func sameCols(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
