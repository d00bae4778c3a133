package storage

import "grfusion/internal/types"

// RowView is a read-only view of a table's slots: either the live table
// itself (single-threaded callers, writer-side execution) or an immutable
// TableSnap pinned by a reader. Plans scan and dereference tuple pointers
// through this interface so the same operators serve both sides.
type RowView interface {
	// Get returns the tuple in the given slot, or false if the slot is
	// free or out of range.
	Get(id RowID) (types.Row, bool)
	// Scan calls fn for every live tuple in slot order until fn returns
	// false.
	Scan(fn func(id RowID, row types.Row) bool)
	// Len returns the number of live tuples.
	Len() int
	// Probe returns the ids of the tuples whose ix key lies within
	// [lo, hi], as of the view. A point probe is the closed range lo = hi,
	// the only kind a hash index or the primary key serves. ix must belong
	// to the viewed table.
	Probe(ix *Index, lo, hi Bound) []RowID
}

var (
	_ RowView = (*Table)(nil)
	_ RowView = (*TableSnap)(nil)
)

// TableSnap is an immutable snapshot of a table's visible rows, taken by
// the writer at version-publish time. It aliases the table's row array
// with a capacity-clamped slice, so taking one is O(1); the table's
// mutators copy the array before the first in-place slot write after a
// snapshot (appends extend past the clamp and are invisible to it).
// A TableSnap is safe for concurrent use without locks.
type TableSnap struct {
	t       *Table
	rows    []types.Row
	live    int
	version uint64
}

// Snapshot returns an immutable view of the table's current rows. The
// snapshot is cached and reused while the table's version is unchanged.
// Callers must hold the table's writer exclusively (the engine's write
// lock); the returned snapshot itself needs no locking.
func (t *Table) Snapshot() *TableSnap {
	v := t.version.Load()
	if t.snap != nil && t.snap.version == v {
		return t.snap
	}
	s := &TableSnap{
		t:       t,
		rows:    t.rows[:len(t.rows):len(t.rows)],
		live:    t.live,
		version: v,
	}
	t.snap = s
	t.sharedLen = len(t.rows)
	return s
}

// ensurePrivate copies the row array before an in-place write to slot i
// (0-based) that a live snapshot may alias. Appends never need it: the
// snapshot's slice is capacity-clamped, so growth past its length is
// invisible to it.
func (t *Table) ensurePrivate(i int) {
	if i >= t.sharedLen {
		return
	}
	rows := make([]types.Row, len(t.rows))
	copy(rows, t.rows)
	t.rows = rows
	t.sharedLen = 0
}

// Probe implements RowView on the live table: the index is current.
func (t *Table) Probe(ix *Index, lo, hi Bound) []RowID { return ix.probe(lo, hi) }

// Probe implements RowView as of the snapshot. Indexes are not versioned,
// so it reads the LIVE index under a double-check of the table's mutation
// version: mutators bump the version before touching any index, so if the
// version equals the snapshot's both before and after the read, the index
// content matched the snapshot exactly. Any mismatch means a writer is (or
// was) in flight, and the probe degrades to filtering the snapshot by the
// same bounds — same rows, in slot order rather than key order (no
// consumer is promised an order), no index.
func (s *TableSnap) Probe(ix *Index, lo, hi Bound) []RowID {
	if s.t.version.Load() == s.version {
		ids := ix.probe(lo, hi)
		if s.t.version.Load() == s.version {
			return ids
		}
	}
	var ids []RowID
	key := make(types.Row, len(ix.cols))
	s.Scan(func(id RowID, row types.Row) bool {
		for i, c := range ix.cols {
			key[i] = row[c]
		}
		if within(key, lo, hi) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// Get returns the tuple in the given slot as of the snapshot.
func (s *TableSnap) Get(id RowID) (types.Row, bool) {
	if id == InvalidRowID || int(id) > len(s.rows) {
		return nil, false
	}
	r := s.rows[id-1]
	return r, r != nil
}

// RowValues implements the tuple-source interface used by the expression
// evaluator to dereference tuple pointers held by graph views.
func (s *TableSnap) RowValues(id uint64) (types.Row, bool) { return s.Get(RowID(id)) }

// Scan calls fn for every live tuple in slot order until fn returns false.
func (s *TableSnap) Scan(fn func(id RowID, row types.Row) bool) {
	for i, r := range s.rows {
		if r == nil {
			continue
		}
		if !fn(RowID(i+1), r) {
			return
		}
	}
}

// Len returns the number of live tuples as of the snapshot.
func (s *TableSnap) Len() int { return s.live }
