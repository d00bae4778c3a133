package catalog

import (
	"testing"
	"time"

	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// TestFreshStatsDriftsStale is the §6.3 staleness regression: statistics
// published before heavy DML must stop steering the optimizer once the
// maintenance-operation count has drifted past the freshness bound, while
// light DML keeps them live.
func TestFreshStatsDriftsStale(t *testing.T) {
	_, users, _, gv := socialFixture(t)

	gv.SetStats(gv.ComputeStats(gv.Version(), time.Now()))
	if gv.FreshStats() == nil {
		t.Fatal("freshly computed statistics reported stale")
	}

	// Light DML: a handful of maintenance ops stays under the floor.
	for i := int64(100); i < 110; i++ {
		id, err := users.Insert(types.Row{types.NewInt(i), types.NewString("u"), types.NewString("2000")})
		if err != nil {
			t.Fatal(err)
		}
		row, _ := users.Get(id)
		if err := gv.OnInsert("Users", id, row); err != nil {
			t.Fatal(err)
		}
	}
	if gv.FreshStats() == nil {
		t.Fatal("statistics went stale after 10 maintenance ops (floor is 64)")
	}

	// Bulk DML: cross the max(64, (V+E)/8) bound and the object must drop
	// out of FreshStats while Stats still returns it for display.
	for i := int64(200); i < 300; i++ {
		id, err := users.Insert(types.Row{types.NewInt(i), types.NewString("u"), types.NewString("2000")})
		if err != nil {
			t.Fatal(err)
		}
		row, _ := users.Get(id)
		if err := gv.OnInsert("Users", id, row); err != nil {
			t.Fatal(err)
		}
	}
	if gv.FreshStats() != nil {
		t.Fatal("statistics still fresh after bulk DML drift")
	}
	if gv.Stats() == nil {
		t.Fatal("Stats must keep the last object for display even when stale")
	}

	// A refresh re-arms freshness at the new maintenance count.
	gv.SetStats(gv.ComputeStats(gv.Version(), time.Now()))
	if gv.FreshStats() == nil {
		t.Fatal("refresh did not restore freshness")
	}
}

// TestInvalidateStats verifies wholesale withdrawal (the RebuildGraphView
// path): after invalidation both accessors return nil until a new refresh.
func TestInvalidateStats(t *testing.T) {
	_, _, _, gv := socialFixture(t)
	gv.SetStats(gv.ComputeStats(gv.Version(), time.Now()))
	gv.InvalidateStats()
	if gv.Stats() != nil || gv.FreshStats() != nil {
		t.Fatal("invalidated statistics still published")
	}
}

// TestMaintOpsCountsOnlySourceTables verifies the drift counter ignores
// DML against tables the view is not defined over.
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
