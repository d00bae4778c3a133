package storage

import (
	"strings"
	"testing"
	"testing/quick"

	"grfusion/internal/types"
)

func newUsersTable() *Table {
	s := types.NewSchema(
		types.Column{Qualifier: "users", Name: "uid", Type: types.KindInt},
		types.Column{Qualifier: "users", Name: "name", Type: types.KindString},
		types.Column{Qualifier: "users", Name: "age", Type: types.KindInt},
	)
	tb, err := NewTable("users", s, []int{0})
	if err != nil {
		panic(err)
	}
	return tb
}

func usersTable(t *testing.T) *Table {
	t.Helper()
	return newUsersTable()
}

func mustInsert(t *testing.T, tb *Table, vals ...types.Value) RowID {
	t.Helper()
	id, err := tb.Insert(types.Row(vals))
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertGetDelete(t *testing.T) {
	tb := usersTable(t)
	id := mustInsert(t, tb, types.NewInt(1), types.NewString("ann"), types.NewInt(30))
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	row, ok := tb.Get(id)
	if !ok || row[1].S != "ann" {
		t.Fatalf("get: %v %v", row, ok)
	}
	if err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Get(id); ok {
		t.Error("deleted row still visible")
	}
	if err := tb.Delete(id); err == nil {
		t.Error("double delete must fail")
	}
	if tb.Len() != 0 {
		t.Errorf("len after delete = %d", tb.Len())
	}
}

func TestRowIDStabilityAndReuse(t *testing.T) {
	tb := usersTable(t)
	a := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	b := mustInsert(t, tb, types.NewInt(2), types.NewString("b"), types.NewInt(2))
	if err := tb.Delete(a); err != nil {
		t.Fatal(err)
	}
	c := mustInsert(t, tb, types.NewInt(3), types.NewString("c"), types.NewInt(3))
	if c != a {
		t.Errorf("freed slot not reused: got %d want %d", c, a)
	}
	// b's RowID must still dereference to b's tuple.
	row, ok := tb.Get(b)
	if !ok || row[0].I != 2 {
		t.Fatalf("tuple pointer for b broken: %v %v", row, ok)
	}
}

func TestUndoInsertRestoresAllocator(t *testing.T) {
	tb := usersTable(t)
	mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	b := mustInsert(t, tb, types.NewInt(2), types.NewString("b"), types.NewInt(2))
	next, depth := tb.AllocState()

	// Extending insert: undo must shrink the row array back, not leave a
	// hole on the free list.
	c := mustInsert(t, tb, types.NewInt(3), types.NewString("c"), types.NewInt(3))
	if err := tb.UndoInsert(c, true); err != nil {
		t.Fatal(err)
	}
	if n, d := tb.AllocState(); n != next || d != depth {
		t.Fatalf("undo of extending insert: alloc (%d,%d), want (%d,%d)", n, d, next, depth)
	}

	// Reusing insert: undo must push the slot back on top of the free list.
	if err := tb.Delete(b); err != nil {
		t.Fatal(err)
	}
	next, depth = tb.AllocState()
	d := mustInsert(t, tb, types.NewInt(4), types.NewString("d"), types.NewInt(4))
	if d != b {
		t.Fatalf("insert reused slot %d, want %d", d, b)
	}
	if err := tb.UndoInsert(d, false); err != nil {
		t.Fatal(err)
	}
	if n, d := tb.AllocState(); n != next || d != depth {
		t.Fatalf("undo of reusing insert: alloc (%d,%d), want (%d,%d)", n, d, next, depth)
	}
	if e := mustInsert(t, tb, types.NewInt(5), types.NewString("e"), types.NewInt(5)); e != b {
		t.Fatalf("slot after undo: insert took %d, want %d", e, b)
	}

	// Claiming "extended" for a slot that is not the newest is a caller bug
	// and must be reported, not silently corrupt the row array.
	if err := tb.UndoInsert(RowID(1), true); err == nil {
		t.Fatal("out-of-order extended undo succeeded")
	}
}

func TestPrimaryKeyEnforcement(t *testing.T) {
	tb := usersTable(t)
	mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	if _, err := tb.Insert(types.Row{types.NewInt(1), types.NewString("dup"), types.NewInt(9)}); err == nil {
		t.Fatal("duplicate pk accepted")
	}
	if tb.Len() != 1 {
		t.Errorf("failed insert mutated table: len=%d", tb.Len())
	}
	if got := tb.LookupPK(types.Row{types.NewInt(1)}); got == InvalidRowID {
		t.Error("LookupPK missed existing key")
	}
	if got := tb.LookupPK(types.Row{types.NewInt(99)}); got != InvalidRowID {
		t.Errorf("LookupPK found ghost: %d", got)
	}
}

func TestUpdateMaintainsPK(t *testing.T) {
	tb := usersTable(t)
	a := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	mustInsert(t, tb, types.NewInt(2), types.NewString("b"), types.NewInt(2))
	// Changing a's key to 2 must fail.
	err := tb.Update(a, types.Row{types.NewInt(2), types.NewString("a"), types.NewInt(1)})
	if err == nil {
		t.Fatal("pk collision on update accepted")
	}
	// Changing to a fresh key succeeds and old key is released.
	if err := tb.Update(a, types.Row{types.NewInt(7), types.NewString("a"), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if tb.LookupPK(types.Row{types.NewInt(1)}) != InvalidRowID {
		t.Error("old key still resolvable")
	}
	if tb.LookupPK(types.Row{types.NewInt(7)}) != a {
		t.Error("new key not resolvable")
	}
}

func TestSchemaEnforcementAndCoercion(t *testing.T) {
	tb := usersTable(t)
	if _, err := tb.Insert(types.Row{types.NewInt(1), types.NewString("a")}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tb.Insert(types.Row{types.NewString("x"), types.NewString("a"), types.NewInt(1)}); err == nil {
		t.Error("type mismatch accepted")
	}
	// Integral float coerces into BIGINT column.
	id, err := tb.Insert(types.Row{types.NewFloat(5), types.NewString("a"), types.NewInt(1)})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tb.Get(id)
	if row[0].Kind != types.KindInt || row[0].I != 5 {
		t.Errorf("coercion failed: %v", row[0])
	}
	// NULLs are allowed in non-key columns.
	if _, err := tb.Insert(types.Row{types.NewInt(6), types.Null(), types.Null()}); err != nil {
		t.Errorf("null insert: %v", err)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tb := usersTable(t)
	for i := int64(1); i <= 5; i++ {
		mustInsert(t, tb, types.NewInt(i), types.NewString("x"), types.NewInt(i))
	}
	var seen []int64
	tb.Scan(func(id RowID, row types.Row) bool {
		seen = append(seen, row[0].I)
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Errorf("scan: %v", seen)
	}
}

func TestEmpty(t *testing.T) {
	tb := usersTable(t)
	mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	if _, err := tb.CreateIndex("ix_age", []int{2}, false); err != nil {
		t.Fatal(err)
	}
	empty := tb.Empty()
	if empty.Len() != 0 || tb.Len() != 1 {
		t.Errorf("Empty: %d rows, original %d, want 0 and 1", empty.Len(), tb.Len())
	}
	if next, depth := empty.AllocState(); next != 1 || depth != 0 {
		t.Errorf("Empty allocator = (%d,%d), want (1,0)", next, depth)
	}
	ix, ok := empty.Index("ix_age")
	if !ok || ix.Len() != 0 {
		t.Errorf("Empty lost the index definition or kept its entries (present %v)", ok)
	}
	if _, err := empty.Insert(types.Row{types.NewInt(1), types.NewString("a"), types.NewInt(1)}); err != nil {
		t.Errorf("insert into the empty table: %v", err)
	}
	if _, err := empty.Insert(types.Row{types.NewInt(1), types.NewString("b"), types.NewInt(2)}); err == nil {
		t.Error("Empty lost the primary key: duplicate accepted")
	}
	if ix.Len() != 1 {
		t.Errorf("the empty table's index holds %d entries after one insert, want 1", ix.Len())
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	tb := usersTable(t)
	v0 := tb.Version()
	id := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	if tb.Version() == v0 {
		t.Error("insert did not bump version")
	}
	v1 := tb.Version()
	if err := tb.Update(id, types.Row{types.NewInt(1), types.NewString("b"), types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if tb.Version() == v1 {
		t.Error("update did not bump version")
	}
}

func TestApproxBytesGrows(t *testing.T) {
	tb := usersTable(t)
	b0 := tb.ApproxBytes()
	mustInsert(t, tb, types.NewInt(1), types.NewString(strings.Repeat("x", 100)), types.NewInt(1))
	if tb.ApproxBytes() <= b0 {
		t.Error("ApproxBytes did not grow")
	}
}

// Property: after any sequence of inserts and deletes, Len equals the
// number of rows Scan visits, and every live PK resolves via LookupPK.
func TestInsertDeleteInvariantProperty(t *testing.T) {
	prop := func(ops []int8) bool {
		tb := newUsersTable()
		live := make(map[int64]RowID)
		next := int64(0)
		for _, op := range ops {
			if op >= 0 || len(live) == 0 {
				next++
				id, err := tb.Insert(types.Row{types.NewInt(next), types.NewString("p"), types.NewInt(next)})
				if err != nil {
					return false
				}
				live[next] = id
			} else {
				for k, id := range live { // delete an arbitrary live row
					if err := tb.Delete(id); err != nil {
						return false
					}
					delete(live, k)
					break
				}
			}
		}
		if tb.Len() != len(live) {
			return false
		}
		n := 0
		tb.Scan(func(RowID, types.Row) bool { n++; return true })
		if n != len(live) {
			return false
		}
		for k, id := range live {
			if tb.LookupPK(types.Row{types.NewInt(k)}) != id {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIndexesListing(t *testing.T) {
	tb := usersTable(t)
	if got := tb.Indexes(); len(got) != 0 {
		t.Fatalf("fresh table has indexes: %v", got)
	}
	tb.CreateIndex("b_hash", []int{1}, false)
	tb.CreateIndex("a_ord", []int{0}, true)
	got := tb.Indexes()
	if len(got) != 2 || got[0].Name != "a_ord" || !got[0].Ordered || got[1].Name != "b_hash" {
		t.Fatalf("indexes: %+v", got)
	}
	if got[0].Cols[0] != 0 || got[1].Cols[0] != 1 {
		t.Errorf("index cols: %+v", got)
	}
}

func TestRowValuesTupleSource(t *testing.T) {
	tb := usersTable(t)
	id := mustInsert(t, tb, types.NewInt(1), types.NewString("a"), types.NewInt(1))
	row, ok := tb.RowValues(uint64(id))
	if !ok || row[0].I != 1 {
		t.Fatalf("RowValues: %v %v", row, ok)
	}
	if _, ok := tb.RowValues(999); ok {
		t.Error("dead tuple pointer dereferenced")
	}
}
