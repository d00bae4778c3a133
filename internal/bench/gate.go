package bench

import (
	"fmt"
	"strings"
)

// This file is the reproduction's one gate: every claim grbench enforces
// is a row of Gates, and Check evaluates the table on every run. Each row
// is a ratio or an ordering measured within one run, so no gate reads a
// committed baseline and no absolute number — which tracks the machine,
// not the code — is ever compared.

// Any matches every value of a selector field.
const Any = "*"

// Sel selects rows by (experiment, dataset, system, param, metric); a
// field set to Any matches every value.
type Sel [5]string

func (r Row) key() Sel { return Sel{r.Experiment, r.Dataset, r.System, r.Param, r.Metric} }

func (s Sel) String() string { return strings.Join(s[:], " ") }

func (s Sel) match(r Row) bool {
	k := r.key()
	for i, f := range s {
		if f != Any && f != k[i] {
			return false
		}
	}
	return true
}

// Op is a gate's comparison. AtLeast and AtMost make a value gate; Lacks
// and Has make a note gate.
type Op string

const (
	AtLeast Op = ">="    // every selected value (or ratio) is >= the threshold
	AtMost  Op = "<="    // every selected value (or ratio) is <= the threshold
	Lacks   Op = "lacks" // no selected row's note contains Note
	Has     Op = "has"   // every selected row's note contains Note
)

// Gate is one enforced claim.
type Gate struct {
	Rows Sel
	// Per, if set, divides each selected value by the Per row that agrees
	// with it on every field both selectors leave Any. A row whose partner
	// was never measured (absent, aborted or skipped) is passed over: the
	// paper stops reporting a baseline once it aborts, and note gates own
	// the aborts.
	Per     *Sel
	Op      Op
	Limit   float64 // value gates: the threshold
	OneCore float64 // value gates: the threshold when the run had one core; 0 keeps Limit
	Note    string  // note gates: the note substring
	Why     string  // the claim, in one line
}

// Gates is the claim table. The paper rows check the shape of §7 (who
// wins by how much, where SQLGraph aborts, what maintenance costs); the
// rest are the engine's own ratio claims. Each threshold is the claim as
// stated; EXPERIMENTS.md records the weakest value measured against it.
var Gates = []Gate{
	{Rows: Sel{Any, Any, "grfusion", Any, Any}, Op: Lacks, Note: "ABORT",
		Why: "GRFusion finishes every query of every experiment"},
	{Rows: Sel{"fig7", Any, "grfusion", Any, "avg_ms"}, Per: &Sel{"fig7", Any, "sqlgraph-mat", Any, "avg_ms"},
		Op: AtMost, Limit: 0.1,
		Why: "Fig 7: GRFusion is >= 10x faster than SQLGraph on VoltDB wherever SQLGraph finishes"},
	{Rows: Sel{"fig7", "twitter", "sqlgraph-mat", "len=4", "avg_ms"}, Op: Has, Note: "ABORT",
		Why: "Fig 7: SQLGraph on VoltDB aborts on Twitter at 4 joins, out of temp memory"},
	{Rows: Sel{"fig9", Any, "grfusion", Any, "avg_ms"}, Per: &Sel{"fig9", Any, "grail", Any, "avg_ms"},
		Op: AtMost, Limit: 0.1,
		Why: "Fig 9: GRFusion's SPScan is >= 10x faster than Grail's iterative SQL at every selectivity"},
	{Rows: Sel{"fig9", Any, "sp-two-sided", Any, "edges_traversed"}, Per: &Sel{"fig9", Any, "sp-one-sided", Any, "edges_traversed"},
		Op: AtMost, Limit: 1,
		Why: "SPScan: a TOP 1 shortest path between bound endpoints, searched from both ends, traverses no more edges than the one-sided search"},
	{Rows: Sel{"fig10", Any, Any, Any, Any}, Op: Lacks, Note: "COUNT MISMATCH",
		Why: "Fig 10: every system counts the same triangles"},
	{Rows: Sel{"fig10", Any, "grfusion", Any, "ms"}, Per: &Sel{"fig10", Any, "titan-like", Any, "ms"},
		Op: AtMost, Limit: 1,
		Why: "Fig 10: GRFusion counts triangles no slower than the serializing graph store"},
	{Rows: Sel{"fig10", Any, "grfusion", "sel=50", "ms"}, Per: &Sel{"fig10", Any, "sqlgraph-pipe", "sel=50", "ms"},
		Op: AtMost, Limit: 1,
		Why: "Fig 10: GRFusion counts triangles no slower than SQLGraph's 3-way self-join"},
	{Rows: Sel{"table3", Any, "grfusion", Any, "topology_fraction"}, Op: AtMost, Limit: 0.35,
		Why: "Table 3: the topology is a compact index, attributes are not replicated into it"},
	{Rows: Sel{"fig11", Any, "grfusion-view", Any, "ms_per_op"}, Per: &Sel{"fig11", Any, "graphcore-reextract", Any, "full_reextract_ms"},
		Op: AtMost, Limit: 0.02,
		Why: "Fig 11: a view-maintaining DML costs <= 1/50 of re-extracting the graph"},
	{Rows: Sel{"ablation", Any, "pushdown-on", Any, "edges_traversed"}, Per: &Sel{"ablation", Any, "pushdown-off", Any, "edges_traversed"},
		Op: AtMost, Limit: 1,
		Why: "§6.2: pushing the selectivity predicate into the traversal never traverses more edges than residual filtering"},
	{Rows: Sel{"concurrency", Any, "grfusion", "mixed", "p99_ratio"}, Op: AtMost, Limit: 2, OneCore: 4,
		Why: "MVCC: a DML storm keeps traversal-read p99 within 2x of idle (4x when writer and readers share one core)"},
	{Rows: Sel{"wire", Any, "grfusion", "point", "pipeline_speedup"}, Op: AtLeast, Limit: 3,
		Why: "wire: pipelined prepared point lookups are >= 3x unpipelined ad hoc round trips"},
	{Rows: Sel{"wire", Any, "grfusion", "ingest", "copy_speedup"}, Op: AtLeast, Limit: 4,
		Why: "wire: COPY ingest is >= 4x per-statement inserts"},
	{Rows: Sel{"observability", Any, "grfusion", "slowlog-armed", "overhead_on_pct"}, Op: AtMost, Limit: 15,
		Why: "observability: an armed slow-query log costs <= 15% on real traversal statements"},
}

// Check evaluates every gate whose experiment ran and returns one error
// per violated row. cores is the run's GOMAXPROCS.
func Check(rows []Row, cores int) []error { return check(Gates, rows, cores) }

func check(gates []Gate, rows []Row, cores int) []error {
	ran := map[string]bool{Any: len(rows) > 0}
	for _, r := range rows {
		ran[r.Experiment] = true
	}
	var errs []error
	for _, g := range gates {
		if ran[g.Rows[0]] {
			errs = append(errs, g.check(rows, cores)...)
		}
	}
	return errs
}

// check evaluates one gate. A gate naming its experiment must select at
// least one row, so renaming a row cannot silently disable its gate; a
// gate over every experiment checks whichever ran.
func (g Gate) check(rows []Row, cores int) []error {
	limit := g.Limit
	if cores == 1 && g.OneCore != 0 {
		limit = g.OneCore
	}
	var errs []error
	fail := func(r Row, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s: %s (%s)", r.key(), fmt.Sprintf(format, args...), g.Why))
	}
	checked := 0
	for _, r := range rows {
		if !g.Rows.match(r) {
			continue
		}
		switch g.Op {
		case Lacks:
			if strings.Contains(r.Note, g.Note) {
				fail(r, "note %q", r.Note)
			}
		case Has:
			if !strings.Contains(r.Note, g.Note) {
				fail(r, "note %q, want %q", r.Note, g.Note)
			}
		default:
			if strings.HasPrefix(r.Note, "ABORT") {
				fail(r, "no value: %s", r.Note)
				break
			}
			v, what := r.Value, "value"
			if g.Per != nil {
				p, ok := g.partner(r, rows)
				if !ok {
					continue
				}
				v /= p.Value
				what = fmt.Sprintf("%.4g / %s %s %.4g", r.Value, p.System, p.Metric, p.Value)
			}
			if g.Op == AtLeast && !(v >= limit) || g.Op == AtMost && !(v <= limit) {
				fail(r, "%s = %.4g, want %s %g", what, v, g.Op, limit)
			}
		}
		checked++
	}
	if checked == 0 && g.Rows[0] != Any {
		errs = append(errs, fmt.Errorf("%s: gate matches no row (%s)", g.Rows, g.Why))
	}
	return errs
}

// partner returns the Per row r is divided by, and false when the
// baseline has no measured value there.
func (g Gate) partner(r Row, rows []Row) (Row, bool) {
	want := *g.Per
	for i, f := range r.key() {
		if g.Rows[i] == Any && want[i] == Any {
			want[i] = f
		}
	}
	for _, p := range rows {
		if want.match(p) {
			measured := !strings.HasPrefix(p.Note, "ABORT") && !strings.HasPrefix(p.Note, "SKIP")
			return p, measured && p.Value > 0
		}
	}
	return Row{}, false
}
