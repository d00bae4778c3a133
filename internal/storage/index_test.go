package storage

import (
	"testing"
	"testing/quick"

	"grfusion/internal/types"
)

func indexedTable(t *testing.T, ordered bool) (*Table, *Index) {
	t.Helper()
	tb := usersTable(t)
	ix, err := tb.CreateIndex("ix_age", []int{2}, ordered)
	if err != nil {
		t.Fatal(err)
	}
	return tb, ix
}

func TestHashIndexLookup(t *testing.T) {
	tb, ix := indexedTable(t, false)
	a := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(30))
	b := mustInsert(t, tb, types.NewInt(2), types.NewString("b"), types.NewInt(30))
	mustInsert(t, tb, types.NewInt(3), types.NewString("c"), types.NewInt(40))

	got := ix.Lookup(types.Row{types.NewInt(30)})
	if len(got) != 2 {
		t.Fatalf("lookup(30) = %v", got)
	}
	seen := map[RowID]bool{got[0]: true, got[1]: true}
	if !seen[a] || !seen[b] {
		t.Errorf("lookup(30) = %v, want {%d,%d}", got, a, b)
	}
	if got := ix.Lookup(types.Row{types.NewInt(99)}); len(got) != 0 {
		t.Errorf("lookup(99) = %v", got)
	}
}

func TestHashIndexMaintainedByUpdateDelete(t *testing.T) {
	tb, ix := indexedTable(t, false)
	a := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(30))
	if err := tb.Update(a, types.Row{types.NewInt(1), types.NewString("a"), types.NewInt(31)}); err != nil {
		t.Fatal(err)
	}
	if len(ix.Lookup(types.Row{types.NewInt(30)})) != 0 {
		t.Error("stale index entry after update")
	}
	if len(ix.Lookup(types.Row{types.NewInt(31)})) != 1 {
		t.Error("missing index entry after update")
	}
	if err := tb.Delete(a); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 0 {
		t.Error("stale index entry after delete")
	}
}

func TestOrderedIndexRange(t *testing.T) {
	tb, ix := indexedTable(t, true)
	for i := int64(1); i <= 10; i++ {
		mustInsert(t, tb, types.NewInt(i), types.NewString("x"), types.NewInt(i*10))
	}
	collect := func(lo, hi Bound) []int64 {
		var out []int64
		ix.Range(lo, hi, func(id RowID) bool {
			row, _ := tb.Get(id)
			out = append(out, row[2].I)
			return true
		})
		return out
	}
	got := collect(Bound{Key: types.Row{types.NewInt(30)}, Inclusive: true},
		Bound{Key: types.Row{types.NewInt(50)}, Inclusive: true})
	want := []int64{30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("range [30,50] = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range [30,50] = %v, want %v", got, want)
		}
	}
	got = collect(Bound{Key: types.Row{types.NewInt(30)}, Inclusive: false},
		Bound{Key: types.Row{types.NewInt(50)}, Inclusive: false})
	if len(got) != 1 || got[0] != 40 {
		t.Errorf("range (30,50) = %v", got)
	}
	got = collect(Bound{}, Bound{Key: types.Row{types.NewInt(20)}, Inclusive: true})
	if len(got) != 2 {
		t.Errorf("range (-inf,20] = %v", got)
	}
	got = collect(Bound{Key: types.Row{types.NewInt(90)}, Inclusive: true}, Bound{})
	if len(got) != 2 {
		t.Errorf("range [90,inf) = %v", got)
	}
}

func TestOrderedIndexPointLookupAndDuplicates(t *testing.T) {
	tb, ix := indexedTable(t, true)
	mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(5))
	mustInsert(t, tb, types.NewInt(2), types.NewString("b"), types.NewInt(5))
	if got := ix.Lookup(types.Row{types.NewInt(5)}); len(got) != 2 {
		t.Errorf("dup lookup = %v", got)
	}
}

func TestFindIndexOn(t *testing.T) {
	tb := usersTable(t)
	if _, ok := tb.FindIndexOn([]int{2}, false); ok {
		t.Error("found index on unindexed table")
	}
	if _, err := tb.CreateIndex("ord", []int{2}, true); err != nil {
		t.Fatal(err)
	}
	// Ordered index serves point lookups as a fallback.
	ix, ok := tb.FindIndexOn([]int{2}, false)
	if !ok || !ix.Ordered() {
		t.Error("ordered index not usable for point lookup")
	}
	if _, err := tb.CreateIndex("hsh", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	ix, ok = tb.FindIndexOn([]int{2}, false)
	if !ok || ix.Ordered() {
		t.Error("hash index must be preferred for point lookups")
	}
	ix, ok = tb.FindIndexOn([]int{2}, true)
	if !ok || !ix.Ordered() {
		t.Error("ordered request must return ordered index")
	}
	if _, ok := tb.FindIndexOn([]int{0, 2}, false); ok {
		t.Error("column-set mismatch matched")
	}
}

func TestCreateIndexErrors(t *testing.T) {
	tb := usersTable(t)
	if _, err := tb.CreateIndex("a", []int{9}, false); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := tb.CreateIndex("a", []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("A", []int{1}, false); err == nil {
		t.Error("duplicate index name accepted (case-insensitive)")
	}
	if !tb.DropIndex("a") {
		t.Error("drop existing index failed")
	}
	if tb.DropIndex("a") {
		t.Error("drop missing index succeeded")
	}
}

func TestIndexBuildsOverExistingRows(t *testing.T) {
	tb := usersTable(t)
	mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(30))
	ix, err := tb.CreateIndex("late", []int{2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Lookup(types.Row{types.NewInt(30)})) != 1 {
		t.Error("late-built index missed existing row")
	}
}

// Property: an ordered index enumerates exactly the live rows, in
// nondecreasing key order, under random insert/delete sequences.
func TestOrderedIndexSortedInvariant(t *testing.T) {
	prop := func(keys []int16, dels []uint8) bool {
		tb := newUsersTable()
		ix, err := tb.CreateIndex("ord", []int{2}, true)
		if err != nil {
			return false
		}
		var ids []RowID
		for i, k := range keys {
			id, err := tb.Insert(types.Row{types.NewInt(int64(i)), types.NewString("x"), types.NewInt(int64(k))})
			if err != nil {
				return false
			}
			ids = append(ids, id)
		}
		for _, d := range dels {
			if len(ids) == 0 {
				break
			}
			i := int(d) % len(ids)
			if err := tb.Delete(ids[i]); err != nil {
				return false
			}
			ids = append(ids[:i], ids[i+1:]...)
		}
		if ix.Len() != tb.Len() {
			return false
		}
		prev := int64(-1 << 30)
		okOrder := true
		ix.Range(Bound{}, Bound{}, func(id RowID) bool {
			row, ok := tb.Get(id)
			if !ok {
				okOrder = false
				return false
			}
			if row[2].I < prev {
				okOrder = false
				return false
			}
			prev = row[2].I
			return true
		})
		return okOrder
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPrimaryKeyIsTheBuiltInIndex(t *testing.T) {
	tb := usersTable(t)
	a := mustInsert(t, tb, types.NewInt(7), types.NewString("a"), types.NewInt(30))
	mustInsert(t, tb, types.NewInt(8), types.NewString("b"), types.NewInt(31))
	if _, err := tb.CreateIndex("uid_hash", []int{0}, false); err != nil {
		t.Fatal(err)
	}
	pk, ok := tb.FindIndexOn([]int{0}, false)
	if !ok || pk.Name() != "primary key" || pk.Ordered() {
		t.Fatalf("point request on the key column: %v, %v; want the primary key", pk, ok)
	}
	if got := pk.Lookup(types.Row{types.NewInt(7)}); len(got) != 1 || got[0] != a {
		t.Errorf("primary-key lookup = %v, want [%d]", got, a)
	}
	if got := pk.Lookup(types.Row{types.NewInt(9)}); got != nil {
		t.Errorf("primary-key lookup of an absent key = %v", got)
	}
	if pk.Len() != tb.Len() {
		t.Errorf("primary key holds %d keys for %d rows", pk.Len(), tb.Len())
	}
	if ix, ok := tb.FindIndexOn([]int{0}, true); ok {
		t.Errorf("range request served by %s; the primary key is not ordered", ix.Name())
	}
	// Built in: not listed (so never checkpointed), not addressable by name.
	if got := tb.Indexes(); len(got) != 1 || got[0].Name != "uid_hash" {
		t.Errorf("Indexes() = %+v, want only uid_hash", got)
	}
	if _, ok := tb.Index(pk.Name()); ok {
		t.Error("primary key reachable through Index(name)")
	}
	if tb.DropIndex(pk.Name()) {
		t.Error("primary key dropped")
	}
	// The registry is kept in order at CREATE/DROP time; resolving an access
	// path is on the per-execution path of every point statement.
	cols := []int{0}
	if n := testing.AllocsPerRun(100, func() { tb.FindIndexOn(cols, false); tb.FindIndexOn(cols, true) }); n != 0 {
		t.Errorf("FindIndexOn allocates %.0f times per call pair", n)
	}
}

// TestProbeLiveAndPinned is the direct test of the pinned-reader index
// protocol: a snapshot probe equals the live probe while the table is idle,
// and keeps returning exactly the snapshot's rows — through the primary key,
// a hash index and an ordered index — after a writer inserts a row with the
// probed key, re-keys one and deletes one, which is when it must leave the
// live index for the snapshot filter.
func TestProbeLiveAndPinned(t *testing.T) {
	tb := usersTable(t)
	hash, _ := tb.CreateIndex("age_hash", []int{2}, false)
	ord, _ := tb.CreateIndex("age_ord", []int{2}, true)
	pk, _ := tb.FindIndexOn([]int{0}, false)
	var ids [6]RowID
	for i := range ids {
		ids[i] = mustInsert(t, tb, types.NewInt(int64(i)), types.NewString("u"), types.NewInt(int64(30+i/2)))
	}
	point := func(v int64) (Bound, Bound) {
		b := Bound{Key: types.Row{types.NewInt(v)}, Inclusive: true}
		return b, b
	}
	probes := []struct {
		name   string
		ix     *Index
		lo, hi Bound
		pinned []RowID
		live   []RowID // after the writes below
	}{
		{name: "pk", ix: pk, pinned: []RowID{ids[2]}, live: []RowID{ids[0]}},
		{name: "hash", ix: hash, pinned: []RowID{ids[2], ids[3]}, live: []RowID{ids[3]}},
		{name: "ordered point", ix: ord, pinned: []RowID{ids[2], ids[3]}, live: []RowID{ids[3]}},
		{name: "ordered range", ix: ord, lo: Bound{Key: types.Row{types.NewInt(31)}, Inclusive: true},
			hi: Bound{Key: types.Row{types.NewInt(32)}}, pinned: []RowID{ids[2], ids[3]}, live: []RowID{ids[3]}},
	}
	probes[0].lo, probes[0].hi = point(2)
	probes[1].lo, probes[1].hi = point(31)
	probes[2].lo, probes[2].hi = point(31)
	same := func(got, want []RowID) bool {
		if len(got) != len(want) {
			return false
		}
		seen := map[RowID]bool{}
		for _, id := range got {
			seen[id] = true
		}
		for _, id := range want {
			if !seen[id] {
				return false
			}
		}
		return true
	}

	snap := tb.Snapshot()
	for _, p := range probes {
		if got := snap.Probe(p.ix, p.lo, p.hi); !same(got, p.pinned) {
			t.Errorf("%s: idle snapshot probe = %v, want %v", p.name, got, p.pinned)
		}
		if got := tb.Probe(p.ix, p.lo, p.hi); !same(got, p.pinned) {
			t.Errorf("%s: idle live probe = %v, want %v", p.name, got, p.pinned)
		}
	}
	// Delete uid 2 (age 31); re-key uid 0 to uid 2 with age 40, reusing
	// neither the slot nor the age. The live indexes now disagree with snap.
	if err := tb.Delete(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := tb.Update(ids[0], types.Row{types.NewInt(2), types.NewString("u"), types.NewInt(40)}); err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		if got := snap.Probe(p.ix, p.lo, p.hi); !same(got, p.pinned) {
			t.Errorf("%s: pinned probe after writes = %v, want %v", p.name, got, p.pinned)
		}
		if got := tb.Probe(p.ix, p.lo, p.hi); !same(got, p.live) {
			t.Errorf("%s: live probe after writes = %v, want %v", p.name, got, p.live)
		}
	}
}
