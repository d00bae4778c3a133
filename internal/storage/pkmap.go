package storage

import (
	"math"

	"grfusion/internal/types"
)

// pkIndex is the primary-key uniqueness index of a Table. The general form
// keys a map by the string encoding of the key columns (types.KeyOf); the
// overwhelmingly common schema in graph workloads — a single BIGINT id
// column — gets a dedicated map[int64] fast path that skips the per-row
// key-string allocation and string hashing entirely. On the bulk-ingest
// path that string key was the single largest per-row cost (measured ~40%
// of a bare-table insert), so the fast path is what makes millions of
// edges per second reachable.
//
// The two representations agree on semantics: a DOUBLE that holds an exact
// integer shares its key with the equal BIGINT (mirroring types.Value.Key),
// and all NULL keys collide with each other (a second NULL primary key is a
// duplicate), which the fast path models with a dedicated null slot.
type pkIndex struct {
	cols []int // key column positions within the schema

	// intKey selects the single-BIGINT-column fast path.
	intKey bool
	ints   map[int64]RowID
	nullID RowID // slot of the row whose key is NULL (0 = none); fast path only

	str map[string]RowID // general form
}

// newPKIndex builds the index for the given key columns. The fast path is
// chosen statically from the declared schema: checkRow coerces every
// stored value to its column type, so a single-column BIGINT key can only
// ever hold KindInt or KindNull values.
func newPKIndex(schema *types.Schema, cols []int) *pkIndex {
	pk := &pkIndex{cols: cols}
	if len(cols) == 1 && schema.Columns[cols[0]].Type == types.KindInt {
		pk.intKey = true
		pk.ints = make(map[int64]RowID)
	} else {
		pk.str = make(map[string]RowID)
	}
	return pk
}

// intKeyOf maps a key value onto the fast path's int64 domain, mirroring
// types.Value.Key: BIGINTs map to themselves, DOUBLEs holding an exact
// in-range integer map to that integer, NULL maps to the null slot.
// ok=false means the value can never match a stored BIGINT key.
func intKeyOf(v types.Value) (k int64, isNull bool, ok bool) {
	switch v.Kind {
	case types.KindInt:
		return v.I, false, true
	case types.KindFloat:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return int64(v.F), false, true
		}
		return 0, false, false
	case types.KindNull:
		return 0, true, true
	default:
		return 0, false, false
	}
}

// lookupInt is the fast path's lookup of one key value.
func (pk *pkIndex) lookupInt(v types.Value) (RowID, bool) {
	k, isNull, ok := intKeyOf(v)
	switch {
	case !ok:
		return InvalidRowID, false
	case isNull:
		return pk.nullID, pk.nullID != InvalidRowID
	}
	id, ok := pk.ints[k]
	return id, ok
}

// lookupRow returns the slot holding row's key, if any.
func (pk *pkIndex) lookupRow(row types.Row) (RowID, bool) {
	if pk.intKey {
		return pk.lookupInt(row[pk.cols[0]])
	}
	id, ok := pk.str[types.KeyOf(row, pk.cols)]
	return id, ok
}

// lookupKey is lookupRow over a bare key tuple (values in key-column
// order, as passed to Table.LookupPK and Index.Lookup).
func (pk *pkIndex) lookupKey(key types.Row) (RowID, bool) {
	if len(key) != len(pk.cols) {
		return InvalidRowID, false
	}
	if pk.intKey {
		return pk.lookupInt(key[0])
	}
	id, ok := pk.str[keyString(key)]
	return id, ok
}

// insert records row's key as held by id. The caller has already checked
// for duplicates via lookupRow.
func (pk *pkIndex) insert(row types.Row, id RowID) {
	if pk.intKey {
		k, isNull, _ := intKeyOf(row[pk.cols[0]])
		if isNull {
			pk.nullID = id
			return
		}
		pk.ints[k] = id
		return
	}
	pk.str[types.KeyOf(row, pk.cols)] = id
}

// remove drops row's key from the index.
func (pk *pkIndex) remove(row types.Row) {
	if pk.intKey {
		k, isNull, ok := intKeyOf(row[pk.cols[0]])
		if !ok {
			return
		}
		if isNull {
			pk.nullID = InvalidRowID
			return
		}
		delete(pk.ints, k)
		return
	}
	delete(pk.str, types.KeyOf(row, pk.cols))
}

// sameKey reports whether rows a and b hold the same primary key.
func (pk *pkIndex) sameKey(a, b types.Row) bool {
	if pk.intKey {
		ka, na, oka := intKeyOf(a[pk.cols[0]])
		kb, nb, okb := intKeyOf(b[pk.cols[0]])
		return oka && okb && na == nb && (na || ka == kb)
	}
	return types.KeyOf(a, pk.cols) == types.KeyOf(b, pk.cols)
}

// reserve presizes the index for about n additional keys, so a bulk load
// does not pay incremental map growth (rehash + clear of the old buckets)
// on every few thousand rows.
func (pk *pkIndex) reserve(n int) {
	if n <= 0 {
		return
	}
	if pk.intKey {
		grown := make(map[int64]RowID, len(pk.ints)+n)
		for k, v := range pk.ints {
			grown[k] = v
		}
		pk.ints = grown
		return
	}
	grown := make(map[string]RowID, len(pk.str)+n)
	for k, v := range pk.str {
		grown[k] = v
	}
	pk.str = grown
}

// len returns the number of keys held.
func (pk *pkIndex) len() int {
	if !pk.intKey {
		return len(pk.str)
	}
	if pk.nullID != InvalidRowID {
		return len(pk.ints) + 1
	}
	return len(pk.ints)
}
