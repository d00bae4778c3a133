package catalog

import (
	"runtime"
	"testing"

	"grfusion/internal/storage"
	"grfusion/internal/types"
)

// edgeView builds a directed view over nv vertexes and ne edges.
func edgeView(t *testing.T, nv, ne int) *GraphView {
	t.Helper()
	vt, err := storage.NewTable("V", types.NewSchema(types.Column{Name: "vid", Type: types.KindInt}), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	et, err := storage.NewTable("E", types.NewSchema(
		types.Column{Name: "eid", Type: types.KindInt},
		types.Column{Name: "src", Type: types.KindInt},
		types.Column{Name: "dst", Type: types.KindInt}), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nv; i++ {
		if _, err := vt.Insert(types.Row{types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ne; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % nv)), types.NewInt(int64((i * 7919) % nv))}
		if _, err := et.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	gv, err := NewGraphView("G", true, vt, et,
		[]AttrMap{{Name: "ID", Source: "vid"}},
		[]AttrMap{{Name: "ID", Source: "eid"}, {Name: "FROM", Source: "src"}, {Name: "TO", Source: "dst"}})
	if err != nil {
		t.Fatal(err)
	}
	return gv
}

// TestMaintenanceIsODelta: binding a version for publish and maintaining
// one edge insert and one edge delete allocate about the same bytes at
// E = 10k and at E = 100k. Maintenance appends to the delta; it never
// copies the topology (a whole-graph clone made the ratio about 10x).
func TestMaintenanceIsODelta(t *testing.T) {
	perWrite := func(ne int) float64 {
		gv := edgeView(t, ne/5, ne)
		row := types.Row{types.NewInt(int64(ne)), types.NewInt(1), types.NewInt(2)}
		step := func() {
			gv.SettleTopology() // what publish does per view
			gv.Version()
			if err := gv.OnInsert("E", storage.RowID(ne+1), row); err != nil {
				t.Fatal(err)
			}
			if err := gv.OnDelete("E", row); err != nil {
				t.Fatal(err)
			}
		}
		step()
		// 200 writes stay far below the merge threshold at either size.
		const writes = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < writes; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if b, _, _, _, _ := gv.CSRStats(); b != 1 {
			t.Fatalf("E=%d: %d main builds, want the creation only", ne, b)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / writes
	}
	small, large := perWrite(10_000), perWrite(100_000)
	t.Logf("bytes per version + insert + delete: %.0f at E=10k, %.0f at E=100k", small, large)
	if large > 2*small {
		t.Fatalf("maintenance allocates %.0f B at E=100k vs %.0f B at E=10k: it scales with the graph", large, small)
	}
}
