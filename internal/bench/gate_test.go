package bench

import (
	"strings"
	"testing"
)

// TestGates drives each gate kind over synthetic rows: passing, failing
// with an error that names the violating row, a selector matching
// nothing, an aborted gated row, and the one-core threshold.
func TestGates(t *testing.T) {
	row := func(exp, ds, sys, param, metric string, v float64, note string) Row {
		return Row{Experiment: exp, Dataset: ds, System: sys, Param: param, Metric: metric, Value: v, Note: note}
	}
	fig := []Row{
		row("fig7", "road", "grfusion", "len=2", "avg_ms", 0.01, ""),
		row("fig7", "road", "sqlgraph-mat", "len=2", "avg_ms", 1.0, ""),
		row("fig7", "road", "grfusion", "len=8", "avg_ms", 0.02, ""),
		row("fig7", "road", "sqlgraph-mat", "len=8", "avg_ms", 0, "ABORT: memory limit"),
		row("fig7", "dblp", "grfusion", "len=2", "avg_ms", 0.5, ""),
		row("fig7", "dblp", "sqlgraph-mat", "len=2", "avg_ms", 1.0, ""),
		row("fig7", "dblp", "grfusion", "len=10", "avg_ms", 0.03, ""),
	}
	storm := func(ratio float64) []Row {
		return []Row{row("concurrency", "twitter", "grfusion", "mixed", "p99_ratio", ratio, "")}
	}
	speedup := Gate{Rows: Sel{"fig7", Any, "grfusion", Any, "avg_ms"},
		Per: &Sel{"fig7", Any, "sqlgraph-mat", Any, "avg_ms"}, Op: AtMost, Limit: 0.1, Why: "speedup"}
	stormGate := Gate{Rows: Sel{"concurrency", Any, "grfusion", "mixed", "p99_ratio"},
		Op: AtMost, Limit: 2, OneCore: 4, Why: "storm"}

	for _, tc := range []struct {
		name  string
		gate  Gate
		rows  []Row
		cores int
		want  string // substring of the one expected error; "" = the gate holds
	}{
		{"ratio holds; unmeasured partners passed over", speedup, fig[:4], 2, ""},
		{"ratio fails on the violating pair only", speedup, fig, 2, "fig7 dblp grfusion len=2 avg_ms: 0.5 / sqlgraph-mat avg_ms 1 = 0.5, want <= 0.1"},
		{"no measured partner is no row", speedup, fig[2:4], 2, "gate matches no row"},
		{"selector matching nothing", stormGate, []Row{row("concurrency", "twitter", "grfusion", "mixed storm", "read_p99_ms", 1, "")}, 2, "gate matches no row"},
		{"gate of an experiment that did not run", stormGate, fig, 2, ""},
		{"value holds", stormGate, storm(1.5), 2, ""},
		{"value fails", stormGate, storm(2.5), 2, "concurrency twitter grfusion mixed p99_ratio: value = 2.5, want <= 2"},
		{"one-core threshold on one core", stormGate, storm(2.5), 1, ""},
		{"one-core threshold still a ceiling", stormGate, storm(4.5), 1, "want <= 4"},
		{"aborted gated row", stormGate, []Row{row("concurrency", "twitter", "grfusion", "mixed", "p99_ratio", 0, "ABORT: writer: boom")}, 2, "no value: ABORT: writer: boom"},
		{"at least holds", Gate{Rows: Sel{"wire", Any, Any, "point", "pipeline_speedup"}, Op: AtLeast, Limit: 3},
			[]Row{row("wire", "w", "grfusion", "point", "pipeline_speedup", 8, "")}, 2, ""},
		{"at least fails", Gate{Rows: Sel{"wire", Any, Any, "point", "pipeline_speedup"}, Op: AtLeast, Limit: 3},
			[]Row{row("wire", "w", "grfusion", "point", "pipeline_speedup", 2, "")}, 2, "want >= 3"},
		{"lacks holds", Gate{Rows: Sel{Any, Any, "grfusion", Any, Any}, Op: Lacks, Note: "ABORT"}, fig, 2, ""},
		{"lacks fails", Gate{Rows: Sel{Any, Any, "sqlgraph-mat", Any, Any}, Op: Lacks, Note: "ABORT"}, fig, 2,
			`fig7 road sqlgraph-mat len=8 avg_ms: note "ABORT: memory limit"`},
		{"lacks over every experiment matches nothing on a run without the system", Gate{Rows: Sel{Any, Any, "grfusion", Any, Any}, Op: Lacks, Note: "ABORT"},
			[]Row{row("table2", "road", "-", "-", "vertices", 8, "")}, 2, ""},
		{"has holds", Gate{Rows: Sel{"fig7", "road", "sqlgraph-mat", "len=8", "avg_ms"}, Op: Has, Note: "ABORT"}, fig, 2, ""},
		{"has fails", Gate{Rows: Sel{"fig7", "road", "sqlgraph-mat", "len=2", "avg_ms"}, Op: Has, Note: "ABORT"}, fig, 2,
			`fig7 road sqlgraph-mat len=2 avg_ms: note "", want "ABORT"`},
		{"has on a row that was never run", Gate{Rows: Sel{"fig7", "twitter", "sqlgraph-mat", "len=4", "avg_ms"}, Op: Has, Note: "ABORT"}, fig, 2,
			"gate matches no row"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := check([]Gate{tc.gate}, tc.rows, tc.cores)
			if tc.want == "" {
				if len(errs) != 0 {
					t.Fatalf("want the gate to hold, got %v", errs)
				}
				return
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("want one error containing %q, got %v", tc.want, errs)
			}
		})
	}
}

// TestGatesMatchRows pins every gate row to rows the experiments really
// emit, so renaming a system, param or metric cannot disable a gate.
func TestGatesMatchRows(t *testing.T) {
	rows := All(tiny())
	count := func(s Sel) int {
		n := 0
		for _, r := range rows {
			if s.match(r) {
				n++
			}
		}
		return n
	}
	for _, g := range Gates {
		if count(g.Rows) == 0 {
			t.Errorf("gate %q selects no row", g.Rows)
		}
		if g.Per != nil && count(*g.Per) == 0 {
			t.Errorf("gate %q divides by %q, which selects no row", g.Rows, *g.Per)
		}
		if g.Why == "" {
			t.Errorf("gate %q gives no reason", g.Rows)
		}
	}
}
