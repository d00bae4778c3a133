// Package bench is the experiment harness: one entry point per table and
// figure of the paper's evaluation (§7), each returning the rows/series
// the paper reports, plus the engine's own ratio experiments, and the one
// gate table (gate.go) that turns the claims into checks. cmd/grbench
// prints the rows and checks them; bench_test.go wraps the paper
// experiments in testing.B benchmarks.
package bench

import (
	"fmt"
	"strings"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/plan"
)

// Config scales the experiments.
type Config struct {
	// Scale multiplies dataset sizes; 1.0 is the laptop-scale default.
	Scale float64
	// Queries is the number of query instances averaged per data point.
	Queries int
	// Seed drives all data and workload generation.
	Seed int64
	// MemLimit is the intermediate-memory budget given to the
	// VoltDB-style (materialized) SQLGraph runs; 0 picks a default scaled
	// to the dataset.
	MemLimit int64
	// MaxJoinHops caps the traversal depth attempted by the SQLGraph
	// baseline before declaring a timeout-equivalent (the paper stops
	// reporting SQLGraph beyond the depth where it aborts).
	MaxJoinHops int
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.MaxJoinHops <= 0 {
		c.MaxJoinHops = 8
	}
	return c
}

// Row is one reported data point.
type Row struct {
	Experiment string  // e.g. "fig7"
	Dataset    string  // e.g. "road"
	System     string  // e.g. "grfusion"
	Param      string  // e.g. "len=4"
	Metric     string  // e.g. "avg_ms"
	Value      float64 // the measurement
	Note       string  // context; "ABORT: …" or "SKIP: …" when nothing was measured
}

// Format renders rows as an aligned text table grouped the way the paper's
// figures read.
func Format(rows []Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-9s %-12s %-12s %-10s %14s  %s\n",
		"experiment", "dataset", "system", "param", "metric", "value", "note")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-9s %-12s %-12s %-10s %14.4f  %s\n",
			r.Experiment, r.Dataset, r.System, r.Param, r.Metric, r.Value, r.Note)
	}
	return sb.String()
}

// Dataset sizes at Scale = 1.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 8 {
		v = 8
	}
	return v
}

// Datasets generates the four evaluation graphs (§7.1, Table 2
// stand-ins) at the configured scale.
func Datasets(cfg Config) map[string]*datagen.Dataset {
	cfg = cfg.Defaults()
	side := scaled(40, cfg.Scale) // road grid side
	return map[string]*datagen.Dataset{
		"road":    datagen.Road(side, side, cfg.Seed),
		"protein": datagen.Protein(scaled(1500, cfg.Scale), 8, cfg.Seed+1),
		"dblp":    datagen.DBLP(scaled(150, cfg.Scale), 8, cfg.Seed+2),
		"twitter": datagen.Twitter(scaled(3000, cfg.Scale), 5, cfg.Seed+3),
	}
}

// DatasetNames is the canonical reporting order.
var DatasetNames = []string{"road", "protein", "dblp", "twitter"}

// LoadGRFusion embeds a dataset into a fresh GRFusion engine and creates
// its graph view. The view name equals the dataset name.
func LoadGRFusion(d *datagen.Dataset, opts plan.Options) (*core.Engine, error) {
	return LoadGRFusionEngine(d, core.Options{Plan: opts})
}

// LoadGRFusionEngine is LoadGRFusion with full engine options, so the
// concurrency experiments can size the traversal worker pool.
func LoadGRFusionEngine(d *datagen.Dataset, opts core.Options) (*core.Engine, error) {
	eng := core.New(opts)
	if err := loadTables(eng, d); err != nil {
		return nil, err
	}
	if _, err := eng.Execute(viewDDL(d)); err != nil {
		return nil, err
	}
	return eng, nil
}

// loadTables creates the dataset's vertex and edge tables and fills them.
func loadTables(eng *core.Engine, d *datagen.Dataset) error {
	ddl := fmt.Sprintf(`
		CREATE TABLE %s_v (vid BIGINT PRIMARY KEY, name VARCHAR);
		CREATE TABLE %s_e (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT, lbl VARCHAR);
	`, d.Name, d.Name)
	if _, err := eng.ExecuteScript(ddl); err != nil {
		return err
	}
	return bulkLoad(eng, d)
}

// viewDDL is the CREATE GRAPH VIEW over the dataset's tables; the view
// name equals the dataset name.
func viewDDL(d *datagen.Dataset) string {
	dir := "DIRECTED"
	if !d.Directed {
		dir = "UNDIRECTED"
	}
	return fmt.Sprintf(`
		CREATE %s GRAPH VIEW %s
		VERTEXES(ID = vid, name = name) FROM %s_v
		EDGES(ID = eid, FROM = src, TO = dst, w = w, sel = sel, lbl = lbl) FROM %s_e`,
		dir, d.Name, d.Name, d.Name)
}

// bulkLoad inserts the dataset in batched INSERT statements.
func bulkLoad(eng *core.Engine, d *datagen.Dataset) error {
	var sb strings.Builder
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		_, err := eng.Execute(sb.String())
		sb.Reset()
		n = 0
		return err
	}
	for _, v := range d.Vertices {
		if n == 0 {
			fmt.Fprintf(&sb, "INSERT INTO %s_v VALUES ", d.Name)
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s')", v.ID, v.Name)
		if n++; n >= 512 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	for _, e := range d.Edges {
		if n == 0 {
			fmt.Fprintf(&sb, "INSERT INTO %s_e VALUES ", d.Name)
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %g, %d, '%s')", e.ID, e.Src, e.Dst, e.Weight, e.Sel, e.Label)
		if n++; n >= 512 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// timeAvgMS measures fn averaged over the pairs it is handed, in
// milliseconds. fn errors abort the measurement and surface in the note.
func timeAvgMS(n int, fn func(i int) error) (float64, string) {
	if n == 0 {
		return 0, "no queries"
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, "ABORT: " + firstLine(err.Error())
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(n) / 1000, ""
}

// timedRow reports fn's average over the n pairs it is handed
// (timeAvgMS) as one avg_ms row.
func timedRow(exp, dataset, system, param string, n int, fn func(i int) error) Row {
	ms, note := timeAvgMS(n, fn)
	return Row{Experiment: exp, Dataset: dataset, System: system, Param: param, Metric: "avg_ms", Value: ms, Note: note}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Table2 reports the dataset properties the paper's Table 2 lists.
func Table2(cfg Config) []Row {
	cfg = cfg.Defaults()
	ds := Datasets(cfg)
	var rows []Row
	for _, name := range DatasetNames {
		d := ds[name]
		dir := 0.0
		if d.Directed {
			dir = 1.0
		}
		rows = append(rows,
			Row{Experiment: "table2", Dataset: name, System: "-", Param: "-", Metric: "vertices", Value: float64(len(d.Vertices))},
			Row{Experiment: "table2", Dataset: name, System: "-", Param: "-", Metric: "edges", Value: float64(len(d.Edges))},
			Row{Experiment: "table2", Dataset: name, System: "-", Param: "-", Metric: "avg_degree", Value: d.AvgDegree()},
			Row{Experiment: "table2", Dataset: name, System: "-", Param: "-", Metric: "directed", Value: dir},
		)
	}
	return rows
}
