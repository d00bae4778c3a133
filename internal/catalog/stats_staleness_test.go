package catalog

import (
	"testing"

	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// TestFreshStatsDriftsStale checks that the §6.3 statistic cannot go
// stale: the planner reads F from the topology version it plans against
// (settled and bound as the engine publishes it), and every version
// carries exact vertex and edge counts. F matches the sources after light
// DML and after more than max(64, (V+E)/8) maintenance operations, the
// bound past which a delta is merged into a new main.
func TestFreshStatsDriftsStale(t *testing.T) {
	_, users, rels, gv := socialFixture(t)
	published := func() float64 {
		gv.SettleTopology()
		return gv.Version().AvgFanOut()
	}
	// The view is undirected: F = 2|E|/|V|.
	exact := func() float64 { return 2 * float64(rels.Len()) / float64(users.Len()) }
	insert := func(from, to int64) {
		for i := from; i < to; i++ {
			id, err := users.Insert(types.Row{types.NewInt(i), types.NewString("u"), types.NewString("2000")})
			if err != nil {
				t.Fatal(err)
			}
			row, _ := users.Get(id)
			if err := gv.OnInsert("Users", id, row); err != nil {
				t.Fatal(err)
			}
			id, err = rels.Insert(types.Row{types.NewInt(1000 + i), types.NewInt(1), types.NewInt(i), types.NewString("d")})
			if err != nil {
				t.Fatal(err)
			}
			row, _ = rels.Get(id)
			if err := gv.OnInsert("Relationships", id, row); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f := published(); f != exact() {
		t.Fatalf("F at build = %v, want %v", f, exact())
	}

	// Light DML: 20 maintenance operations stay in the delta.
	builds, _, _, _, _ := gv.CSRStats()
	insert(100, 110)
	if f := published(); f != exact() {
		t.Fatalf("F after 20 maintenance ops = %v, want %v", f, exact())
	}

	// Bulk DML: 200 more operations cross max(64, (V+E)/8), so the version
	// the next plan reads sits on a freshly merged main.
	insert(200, 300)
	ops := gv.MaintOps()
	if f := published(); f != exact() {
		t.Fatalf("F after %d maintenance ops = %v, want %v", ops, f, exact())
	}
	if b, _, _, _, _ := gv.CSRStats(); b <= builds {
		t.Fatalf("no merge after %d maintenance ops (builds %d → %d)", ops, builds, b)
	}
}

// TestMaintOpsCountsOnlySourceTables verifies the maintenance counter
// ignores DML against tables the view is not defined over.
func TestMaintOpsCountsOnlySourceTables(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	before := gv.MaintOps()
	if err := gv.OnInsert("Unrelated", storage.RowID(1), types.Row{types.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if gv.MaintOps() != before {
		t.Fatal("maintenance counter moved for a non-source table")
	}
}
