package bench

import (
	"strings"
	"testing"

	"grfusion/internal/plan"
)

// tiny returns a configuration small enough for unit testing.
func tiny() Config {
	return Config{Scale: 0.15, Queries: 2, Seed: 7, MaxJoinHops: 4}
}

func bySystem(rows []Row) map[string][]Row {
	out := map[string][]Row{}
	for _, r := range rows {
		out[r.System] = append(out[r.System], r)
	}
	return out
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(tiny())
	if len(rows) != 4*4 {
		t.Fatalf("rows: %d", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Dataset+"/"+r.Metric] = true
		if r.Metric == "vertices" && r.Value <= 0 {
			t.Errorf("%s has no vertices", r.Dataset)
		}
	}
	if !seen["twitter/directed"] {
		t.Error("missing twitter/directed stat")
	}
}

func TestFig7ProducesAllSystems(t *testing.T) {
	rows := Fig7(tiny())
	sys := bySystem(rows)
	for _, want := range []string{"grfusion", "neo4j-like", "titan-like", "sqlgraph-mat"} {
		if len(sys[want]) == 0 {
			t.Errorf("no rows for %s", want)
		}
	}
	// GRFusion must never abort.
	for _, r := range sys["grfusion"] {
		if r.Note != "" {
			t.Errorf("grfusion aborted: %+v", r)
		}
	}
}

func TestFig8And9And10Run(t *testing.T) {
	cfg := tiny()
	if rows := Fig8(cfg); len(rows) == 0 {
		t.Error("fig8 empty")
	}
	rows := Fig9(cfg)
	if len(rows) == 0 {
		t.Error("fig9 empty")
	}
	sys := bySystem(rows)
	if len(sys["grail"]) == 0 {
		t.Error("fig9 missing grail")
	}
	rows = Fig10(cfg)
	if len(rows) == 0 {
		t.Error("fig10 empty")
	}
	// Triangle counts must agree across systems (no MISMATCH notes).
	for _, r := range rows {
		if strings.Contains(r.Note, "MISMATCH") {
			t.Errorf("triangle count mismatch: %+v", r)
		}
	}
}

func TestTable3TopologyIsCompact(t *testing.T) {
	rows := Table3(tiny())
	frac := map[string]float64{}
	for _, r := range rows {
		if r.Metric == "topology_fraction" {
			frac[r.Dataset] = r.Value
		}
	}
	if len(frac) != 4 {
		t.Fatalf("fractions: %v", frac)
	}
	for ds, f := range frac {
		if f <= 0 || f >= 0.9 {
			t.Errorf("%s: topology fraction %g not compact", ds, f)
		}
	}
}

func TestFig11MaintenanceCheaperThanReextract(t *testing.T) {
	rows := Fig11(tiny())
	perDS := map[string]map[string]float64{}
	for _, r := range rows {
		if perDS[r.Dataset] == nil {
			perDS[r.Dataset] = map[string]float64{}
		}
		perDS[r.Dataset][r.System+"/"+r.Metric] = r.Value
	}
	for ds, m := range perDS {
		if m["table-only/ms_per_op"] <= 0 || m["grfusion-view/ms_per_op"] <= 0 {
			t.Errorf("%s: missing per-op measurements: %v", ds, m)
		}
		if m["graphcore-reextract/full_reextract_ms"] <= 0 {
			t.Errorf("%s: missing re-extraction cost: %v", ds, m)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	rows := Ablation(tiny())
	sys := bySystem(rows)
	for _, want := range []string{"pushdown-on", "pushdown-off", "traversal-bfs", "traversal-dfs", "traversal-rule"} {
		if len(sys[want]) == 0 {
			t.Errorf("no rows for %s", want)
		}
	}
}

func TestFormatAligns(t *testing.T) {
	out := Format([]Row{{Experiment: "fig7", Dataset: "road", System: "grfusion",
		Param: "len=2", Metric: "avg_ms", Value: 1.25, Note: ""}})
	if !strings.Contains(out, "fig7") || !strings.Contains(out, "1.2500") {
		t.Errorf("format output: %q", out)
	}
}

func TestLoadGRFusionView(t *testing.T) {
	cfg := tiny()
	d := Datasets(cfg)["road"]
	eng, err := LoadGRFusion(d, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gv, ok := eng.Catalog().GraphView("road")
	if !ok {
		t.Fatal("view missing")
	}
	if gv.Version().NumVertices() != len(d.Vertices) || gv.Version().NumEdges() != len(d.Edges) {
		t.Errorf("topology: %d/%d", gv.Version().NumVertices(), gv.Version().NumEdges())
	}
}
