package storage

import (
	"sort"
	"sync"

	"grfusion/internal/types"
)

// Index is an access path over a table. A hash index supports point
// lookups; an ordered index additionally supports range scans; both are
// non-unique (one key may map to many RowIDs). The table's primary key is
// its built-in unique index: hash-shaped, at most one RowID per key,
// returned by FindIndexOn like any other but neither listed by Indexes nor
// droppable, and named so that no CREATE INDEX can collide with it.
//
// Maintenance (insert/remove/clear) is serialized by the engine's writer
// lock, but lock-free readers may consult the index concurrently, so all
// access goes through mu. A pinned reader probes through TableSnap.Probe,
// which detects in-flight maintenance by re-checking the owning table's
// version around the read.
type Index struct {
	name    string
	cols    []int
	ordered bool

	mu sync.RWMutex

	// Exactly one representation is populated.
	unique *pkIndex // the primary key
	hash   map[string][]RowID

	// Ordered representation: entries sorted by key (types.Compare,
	// column-major), ties broken by RowID for determinism.
	entries []indexEntry
}

type indexEntry struct {
	key types.Row
	id  RowID
}

// primaryKeyName contains a space, which no SQL identifier can.
const primaryKeyName = "primary key"

func newPrimaryKey(schema *types.Schema, cols []int) *Index {
	return &Index{name: primaryKeyName, cols: cols, unique: newPKIndex(schema, cols)}
}

func newIndex(name string, cols []int, ordered bool) *Index {
	ix := &Index{name: name, cols: append([]int(nil), cols...), ordered: ordered}
	if !ordered {
		ix.hash = make(map[string][]RowID)
	}
	return ix
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Columns returns the indexed column positions.
func (ix *Index) Columns() []int { return ix.cols }

// Ordered reports whether the index supports range scans.
func (ix *Index) Ordered() bool { return ix.ordered }

// keyOf projects a stored tuple onto the indexed columns. A single-column
// key aliases the tuple instead of copying out of it: stored tuples are
// immutable (Update replaces the tuple, and snapshots already share them),
// so an ordered entry carries no key allocation of its own.
func (ix *Index) keyOf(row types.Row) types.Row {
	if len(ix.cols) == 1 {
		c := ix.cols[0]
		return row[c : c+1 : c+1]
	}
	key := make(types.Row, len(ix.cols))
	for i, c := range ix.cols {
		key[i] = row[c]
	}
	return key
}

func compareKeys(a, b types.Row) int {
	for i := range a {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// keyString encodes a bare key tuple the way types.KeyOf encodes the key
// columns of a row.
func keyString(key types.Row) string {
	idx := make([]int, len(key))
	for i := range idx {
		idx[i] = i
	}
	return types.KeyOf(key, idx)
}

func (ix *Index) insert(row types.Row, id RowID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case ix.unique != nil:
		ix.unique.insert(row, id)
	case !ix.ordered:
		ix.hashInsert(types.KeyOf(row, ix.cols), id)
	default:
		ix.orderedInsert(ix.keyOf(row), id)
	}
}

func (ix *Index) remove(row types.Row, id RowID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	switch {
	case ix.unique != nil:
		ix.unique.remove(row)
	case !ix.ordered:
		ix.hashRemove(types.KeyOf(row, ix.cols), id)
	default:
		ix.orderedRemove(ix.keyOf(row), id)
	}
}

// update moves id's entry of a secondary index from tuple old to its
// replacement row, building each key once. An unchanged key keeps its
// entry where it is, so a hash bucket keeps its order and an ordered index
// shifts nothing; an ordered entry's key is re-pointed at row, since a
// single-column key aliases its tuple (keyOf) and would otherwise keep the
// replaced tuple alive.
func (ix *Index) update(old, row types.Row, id RowID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.ordered {
		from, to := types.KeyOf(old, ix.cols), types.KeyOf(row, ix.cols)
		if from != to {
			ix.hashRemove(from, id)
			ix.hashInsert(to, id)
		}
		return
	}
	key := ix.keyOf(row)
	for _, c := range ix.cols {
		if types.Compare(old[c], row[c]) != 0 {
			ix.orderedRemove(ix.keyOf(old), id)
			ix.orderedInsert(key, id)
			return
		}
	}
	ix.entries[ix.search(key, id)].key = key
}

func (ix *Index) hashInsert(ks string, id RowID) {
	ix.hash[ks] = append(ix.hash[ks], id)
}

func (ix *Index) hashRemove(ks string, id RowID) {
	ids := ix.hash[ks]
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(ix.hash, ks)
	} else {
		ix.hash[ks] = ids
	}
}

func (ix *Index) orderedInsert(key types.Row, id RowID) {
	pos := ix.search(key, id)
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = indexEntry{key: key, id: id}
}

func (ix *Index) orderedRemove(key types.Row, id RowID) {
	pos := ix.search(key, id)
	if pos < len(ix.entries) && ix.entries[pos].id == id && compareKeys(ix.entries[pos].key, key) == 0 {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

// search returns the position of the ordered entry (key, id), or where it
// would be inserted.
func (ix *Index) search(key types.Row, id RowID) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		c := compareKeys(ix.entries[i].key, key)
		return c > 0 || (c == 0 && ix.entries[i].id >= id)
	})
}

// Lookup returns the RowIDs whose indexed columns equal key, in
// deterministic order. The returned slice is the caller's to keep: it
// never aliases index internals, so it stays valid across concurrent
// maintenance.
func (ix *Index) Lookup(key types.Row) []RowID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.unique != nil {
		if id, ok := ix.unique.lookupKey(key); ok {
			return []RowID{id}
		}
		return nil
	}
	if !ix.ordered {
		ids := ix.hash[keyString(key)]
		if len(ids) == 0 {
			return nil
		}
		return append([]RowID(nil), ids...)
	}
	var out []RowID
	ix.rangeScan(key, key, true, true, func(id RowID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// Bound describes one end of a range scan.
type Bound struct {
	Key       types.Row // nil means unbounded
	Inclusive bool
}

// Range calls fn for every RowID whose key lies within [lo, hi] subject to
// inclusivity, in ascending key order, until fn returns false. Only
// single-column ranges are supported for multi-column indexes' leading
// column when lo/hi have length 1.
func (ix *Index) Range(lo, hi Bound, fn func(id RowID) bool) {
	if !ix.ordered {
		panic("storage: Range on hash index " + ix.name)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.rangeScan(lo.Key, hi.Key, lo.Inclusive, hi.Inclusive, fn)
}

// probe returns the RowIDs whose key lies within [lo, hi]. A point probe is
// the closed range lo = hi; it is the only kind a hash-shaped index (hash,
// primary key) serves.
func (ix *Index) probe(lo, hi Bound) []RowID {
	if !ix.ordered {
		return ix.Lookup(lo.Key)
	}
	var ids []RowID
	ix.Range(lo, hi, func(id RowID) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// within reports whether key lies inside [lo, hi] under Range's bound
// semantics.
func within(key types.Row, lo, hi Bound) bool {
	if lo.Key != nil {
		if c := comparePrefix(key, lo.Key); c < 0 || (c == 0 && !lo.Inclusive) {
			return false
		}
	}
	if hi.Key != nil {
		if c := comparePrefix(key, hi.Key); c > 0 || (c == 0 && !hi.Inclusive) {
			return false
		}
	}
	return true
}

func (ix *Index) rangeScan(lo, hi types.Row, loInc, hiInc bool, fn func(id RowID) bool) {
	start := 0
	if lo != nil {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c := comparePrefix(ix.entries[i].key, lo)
			if loInc {
				return c >= 0
			}
			return c > 0
		})
	}
	for i := start; i < len(ix.entries); i++ {
		if hi != nil {
			c := comparePrefix(ix.entries[i].key, hi)
			if c > 0 || (c == 0 && !hiInc) {
				return
			}
		}
		if !fn(ix.entries[i].id) {
			return
		}
	}
}

// comparePrefix compares only the first len(b) columns of a against b,
// allowing range scans on a prefix of a multi-column index.
func comparePrefix(a, b types.Row) int {
	n := len(b)
	if len(a) < n {
		n = len(a)
	}
	for i := 0; i < n; i++ {
		if c := types.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Len returns the number of entries in the index.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.unique != nil {
		return ix.unique.len()
	}
	if !ix.ordered {
		n := 0
		for _, ids := range ix.hash {
			n += len(ids)
		}
		return n
	}
	return len(ix.entries)
}
