package bench

import (
	"fmt"
	"math"
	"time"

	"grfusion/internal/baselines/grail"
	"grfusion/internal/baselines/graphstore"
	"grfusion/internal/baselines/sqlgraph"
	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/plan"
	"grfusion/internal/types"
)

// Fig7Lengths is the result-path-length sweep (the paper sweeps 2–20 on
// billion-edge graphs; at synthetic scale the curves flatten past 10).
var Fig7Lengths = []int{2, 4, 6, 8, 10}

// SelSweep is the sub-graph selectivity sweep of §7.1 (5%–50%).
var SelSweep = []int{5, 10, 25, 50}

func selParam(s int) string { return fmt.Sprintf("sel=%d", s) }
func lenParam(l int) string { return fmt.Sprintf("len=%d", l) }

// prepareReach compiles the reachability query once (the VoltDB model:
// parameterized procedures are planned ahead of time; steady-state query
// cost is pure execution). hint is a traversal hint such as HINT(BFS), or
// "" for the §6.3 rule; withSel adds the selectivity predicate with a
// third parameter.
func prepareReach(eng *core.Engine, view, hint string, withSel bool) (*core.Prepared, error) {
	q := fmt.Sprintf(`SELECT PS.PathString FROM %s.Paths PS %s WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`, view, hint)
	if withSel {
		q += " AND PS.Edges[0..*].sel < ?"
	}
	return eng.Prepare(q + " LIMIT 1")
}

func storeFilter(selPct int) graphstore.EdgeFilter {
	if selPct < 0 {
		return nil
	}
	return func(p graphstore.Props) bool { return p["sel"].I < int64(selPct) }
}

// projectedWalks estimates the walks a join-based traversal enumerates; it
// gates the pipelined SQLGraph runs the way the paper's 5-hour timeout
// gated its disk-RDBMS fallback.
func projectedWalks(d *datagen.Dataset, hops int) float64 {
	deg := d.AvgDegree()
	return math.Pow(deg, float64(hops))
}

const walkBudget = 2e6

// graphStores loads d into the map-based (neo4j-like) and the serializing
// (titan-like) property-graph stores.
func graphStores(d *datagen.Dataset) (neo, titan graphstore.GraphDB) {
	neo, titan = graphstore.New(d.Directed), graphstore.NewSerialized(d.Directed)
	for _, db := range []graphstore.GraphDB{neo, titan} {
		if err := graphstore.Load(db, d); err != nil {
			panic(err)
		}
	}
	return neo, titan
}

// Fig7 reproduces the unconstrained-reachability experiment (§7.2 /
// Figure 7): average query time versus result path length, per dataset,
// for GRFusion (BFScan, predicate pushdown disabled per §7.1), SQLGraph in
// VoltDB-style materialized mode and in pipelined mode, and the two
// specialized graph stores.
func Fig7(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range DatasetNames {
		d := ds[name]
		g := d.Build()

		// GRFusion configured as in §7.1: BFS, no pushdown. The reach
		// query names its target, so the §6.3 rule plans BFScan unhinted.
		eng, err := LoadGRFusion(d, plan.Options{DisablePushdown: true})
		if err != nil {
			panic(err)
		}
		memLimit := cfg.MemLimit
		if memLimit == 0 {
			memLimit = 8 << 20 // a VoltDB-like temp budget at synthetic scale
		}
		sgMat, err := sqlgraph.Load(d, "sg", sqlgraph.Materialized, memLimit)
		if err != nil {
			panic(err)
		}
		sgPipe, err := sqlgraph.Load(d, "sp", sqlgraph.Pipelined, 0)
		if err != nil {
			panic(err)
		}
		neo, titan := graphStores(d)

		reach, err := prepareReach(eng, d.Name, "", false)
		if err != nil {
			panic(err)
		}
		matDead := false
		for _, l := range Fig7Lengths {
			pairs := datagen.PairsAtDistance(g, l, cfg.Queries, cfg.Seed+int64(l))
			if len(pairs) == 0 {
				continue
			}
			param, n := lenParam(l), len(pairs)
			rows = append(rows, timedRow("fig7", name, "grfusion", param, n, func(i int) error {
				_, err := reach.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst))
				return err
			}))
			if !matDead && l <= cfg.MaxJoinHops {
				r := timedRow("fig7", name, "sqlgraph-mat", param, n, func(i int) error {
					_, err := sgMat.Reachable(pairs[i].Src, pairs[i].Dst, l, -1)
					return err
				})
				rows = append(rows, r)
				matDead = r.Note != "" // the paper stops reporting after the abort
			}
			if l <= cfg.MaxJoinHops && projectedWalks(d, l) <= walkBudget {
				rows = append(rows, timedRow("fig7", name, "sqlgraph-pipe", param, n, func(i int) error {
					_, err := sgPipe.Reachable(pairs[i].Src, pairs[i].Dst, l, -1)
					return err
				}))
			} else if l <= cfg.MaxJoinHops {
				rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "sqlgraph-pipe",
					Param: param, Metric: "avg_ms", Value: 0,
					Note: "SKIP: projected walk explosion (paper: 5h timeout)"})
			}
			rows = append(rows,
				timedRow("fig7", name, "neo4j-like", param, n, func(i int) error {
					graphstore.Reachable(neo, pairs[i].Src, pairs[i].Dst, 0, nil)
					return nil
				}),
				timedRow("fig7", name, "titan-like", param, n, func(i int) error {
					graphstore.Reachable(titan, pairs[i].Src, pairs[i].Dst, 0, nil)
					return nil
				}))
		}
	}
	return rows
}

// Fig8 reproduces the constrained-reachability experiment: edge-predicate
// selectivity 5%–50% at a fixed traversal depth, with GRFusion's §6.2
// pushdown enabled.
func Fig8(cfg Config) []Row {
	cfg = cfg.Defaults()
	const depth = 4
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range DatasetNames {
		d := ds[name]
		g := d.Build()
		pairs := datagen.PairsAtDistance(g, depth, cfg.Queries, cfg.Seed+100)
		if len(pairs) == 0 {
			continue
		}
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		reach, err := prepareReach(eng, d.Name, "", true)
		if err != nil {
			panic(err)
		}
		sgPipe, err := sqlgraph.Load(d, "sp", sqlgraph.Pipelined, 0)
		if err != nil {
			panic(err)
		}
		neo, titan := graphStores(d)

		for _, sel := range SelSweep {
			param, n := selParam(sel), len(pairs)
			rows = append(rows, timedRow("fig8", name, "grfusion", param, n, func(i int) error {
				_, err := reach.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst), types.NewInt(int64(sel)))
				return err
			}))
			if projectedWalks(d, depth) <= walkBudget {
				rows = append(rows, timedRow("fig8", name, "sqlgraph-pipe", param, n, func(i int) error {
					_, err := sgPipe.Reachable(pairs[i].Src, pairs[i].Dst, depth, sel)
					return err
				}))
			}
			f := storeFilter(sel)
			rows = append(rows,
				timedRow("fig8", name, "neo4j-like", param, n, func(i int) error {
					graphstore.Reachable(neo, pairs[i].Src, pairs[i].Dst, 0, f)
					return nil
				}),
				timedRow("fig8", name, "titan-like", param, n, func(i int) error {
					graphstore.Reachable(titan, pairs[i].Src, pairs[i].Dst, 0, f)
					return nil
				}))
		}
	}
	return rows
}

// Fig9 reproduces the shortest-path experiment against Grail: GRFusion's
// SPScan versus Grail's iterative SQL versus the graph stores' Dijkstra,
// on the road and protein networks, sweeping sub-graph selectivity (100 =
// no predicate).
func Fig9(cfg Config) []Row {
	cfg = cfg.Defaults()
	sweep := append([]int{}, SelSweep...)
	sweep = append(sweep, 100)
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range []string{"road", "protein"} {
		d := ds[name]
		g := d.Build()
		pairs := datagen.ConnectedPairs(g, cfg.Queries, cfg.Seed+200)
		if len(pairs) == 0 {
			continue
		}
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		spPlain, err := eng.Prepare(fmt.Sprintf(`SELECT TOP 1 PS.PathString FROM %s.Paths PS HINT(SHORTESTPATH(w))
			WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`, d.Name))
		if err != nil {
			panic(err)
		}
		spSel, err := eng.Prepare(fmt.Sprintf(`SELECT TOP 1 PS.PathString FROM %s.Paths PS HINT(SHORTESTPATH(w))
			WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? AND PS.Edges[0..*].sel < ?`, d.Name))
		if err != nil {
			panic(err)
		}
		gr, err := grail.Load(d, "gr")
		if err != nil {
			panic(err)
		}
		neo, titan := graphStores(d)

		// The plain query's work, summed over the pairs: as planned (the
		// two-sided SPScan), and in the one-sided form a length bound no
		// path reaches keeps (the gated ratio).
		for _, form := range []struct{ system, bound string }{
			{"sp-two-sided", ""},
			{"sp-one-sided", fmt.Sprintf(" AND PS.Length <= %d", g.NumVertices())},
		} {
			total := 0.0
			for _, p := range pairs {
				total += edgesTraversed(eng, fmt.Sprintf(`SELECT TOP 1 PS.PathString FROM %s.Paths PS HINT(SHORTESTPATH(w))
					WHERE PS.StartVertex.Id = %d AND PS.EndVertex.Id = %d%s`, d.Name, p.Src, p.Dst, form.bound))
			}
			rows = append(rows, Row{Experiment: "fig9", Dataset: name, System: form.system,
				Param: selParam(100), Metric: "edges_traversed", Value: total})
		}

		for _, sel := range sweep {
			param, n := selParam(sel), len(pairs)
			selArg := sel
			if sel >= 100 {
				selArg = -1
			}
			f := storeFilter(selArg)
			rows = append(rows,
				timedRow("fig9", name, "grfusion", param, n, func(i int) error {
					var err error
					if selArg >= 0 {
						_, err = spSel.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst), types.NewInt(int64(selArg)))
					} else {
						_, err = spPlain.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst))
					}
					return err
				}),
				timedRow("fig9", name, "grail", param, n, func(i int) error {
					_, _, err := gr.ShortestPath(pairs[i].Src, pairs[i].Dst, selArg)
					return err
				}),
				timedRow("fig9", name, "neo4j-like", param, n, func(i int) error {
					graphstore.ShortestPath(neo, pairs[i].Src, pairs[i].Dst, "w", f)
					return nil
				}),
				timedRow("fig9", name, "titan-like", param, n, func(i int) error {
					graphstore.ShortestPath(titan, pairs[i].Src, pairs[i].Dst, "w", f)
					return nil
				}))
		}
	}
	return rows
}

// fig10Reps is how many interleaved runs fig10 times per system.
const fig10Reps = 5

// timed returns a run for fastest that times one call of fn, in ms.
func timed(fn func()) func() float64 {
	return func() float64 {
		start := time.Now()
		fn()
		return float64(time.Since(start).Microseconds()) / 1000
	}
}

// Fig10 reproduces the triangle-counting experiment (Listing 4's pattern)
// with edge-predicate selectivity 5%–50%, on the community-structured and
// dense datasets.
func Fig10(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range []string{"dblp", "protein"} {
		d := ds[name]
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		sg, err := sqlgraph.Load(d, "tg", sqlgraph.Pipelined, 0)
		if err != nil {
			panic(err)
		}
		neo, titan := graphStores(d)

		for _, sel := range SelSweep {
			param := selParam(sel)
			q := fmt.Sprintf(`SELECT COUNT(P) FROM %s.Paths P
				WHERE P.Length = 3 AND P.Edges[0..*].sel < %d
				AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`, d.Name, sel)
			f := storeFilter(sel)
			var grfCount, sgCount int64
			var neoCount int
			var grfErr, sgErr error
			// Each system's time is its fastest of interleaved runs
			// (fastest): the dblp counts take about a millisecond, where
			// one average of three flapped the grfusion/neo4j-like ratio.
			ms := fastest(fig10Reps,
				timed(func() {
					res, err := eng.Execute(q)
					if grfErr = err; err == nil {
						grfCount = res.Rows[0][0].I
					}
				}),
				timed(func() { sgCount, sgErr = sg.CountTriangles(sel) }),
				timed(func() { neoCount = graphstore.CountTriangles(neo, f) }),
				timed(func() { graphstore.CountTriangles(titan, f) }))
			note := ""
			if grfErr != nil {
				note = "ABORT: " + firstLine(grfErr.Error())
			}
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "grfusion",
				Param: param, Metric: "ms", Value: ms[0], Note: note})
			switch {
			case sgErr != nil:
				note = "ABORT: " + firstLine(sgErr.Error())
			case sgCount != grfCount:
				note = fmt.Sprintf("COUNT MISMATCH: %d vs grfusion %d", sgCount, grfCount)
			}
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "sqlgraph-pipe",
				Param: param, Metric: "ms", Value: ms[1], Note: note})
			note = ""
			if int64(neoCount) != grfCount {
				note = fmt.Sprintf("COUNT MISMATCH: %d vs grfusion %d", neoCount, grfCount)
			}
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "neo4j-like",
				Param: param, Metric: "ms", Value: ms[2], Note: note})
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "titan-like",
				Param: param, Metric: "ms", Value: ms[3]})
		}
	}
	return rows
}

// Table3 reports graph-view construction cost: topology build time and the
// memory split between the compact topology and the relational attribute
// storage it deliberately does not replicate (§3.2).
func Table3(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range DatasetNames {
		d := ds[name]
		eng := core.New(core.Options{})
		if err := loadTables(eng, d); err != nil {
			panic(err)
		}
		start := time.Now()
		if _, err := eng.Execute(viewDDL(d)); err != nil {
			panic(err)
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000

		gv, _ := eng.Catalog().GraphView(name)
		vt, _ := eng.Catalog().Table(name + "_v")
		et, _ := eng.Catalog().Table(name + "_e")
		topo := float64(gv.Version().ApproxBytes())
		rel := float64(vt.ApproxBytes() + et.ApproxBytes())
		rows = append(rows,
			Row{Experiment: "table3", Dataset: name, System: "grfusion", Param: "-", Metric: "build_ms", Value: buildMS},
			Row{Experiment: "table3", Dataset: name, System: "grfusion", Param: "-", Metric: "topology_bytes", Value: topo},
			Row{Experiment: "table3", Dataset: name, System: "grfusion", Param: "-", Metric: "relational_bytes", Value: rel},
			Row{Experiment: "table3", Dataset: name, System: "grfusion", Param: "-", Metric: "topology_fraction", Value: topo / (topo + rel)},
		)
	}
	return rows
}

// Fig11 reproduces the online-update experiment (§3.3's claims): per-edge
// DML cost on a bare table, on a table with a dependent graph view
// (incremental maintenance), and the Native Graph-Core alternative of
// re-extracting the whole graph after each batch.
func Fig11(cfg Config) []Row {
	cfg = cfg.Defaults()
	const batch = 200
	param := fmt.Sprintf("batch=%d", batch)
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range DatasetNames {
		d := ds[name]
		bare := core.New(core.Options{})
		if err := loadTables(bare, d); err != nil {
			panic(err)
		}
		view, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		systems := []string{"table-only", "grfusion-view"}
		best := fastest(5, dmlBatch(bare, d, batch), dmlBatch(view, d, batch))
		for i, system := range systems {
			rows = append(rows, Row{Experiment: "fig11", Dataset: name, System: system,
				Param: param, Metric: "ms_per_op", Value: best[i]})
		}
		// Incremental maintenance cost in isolation: the view-engine delta
		// over the bare-table engine (statement overhead cancels out). Each
		// side is its fastest of interleaved batches. While both sides are
		// dominated by the edge table's copy-on-write of its row array, the
		// difference sits inside their spread and can read negative
		// (EXPERIMENTS.md, Figure 11).
		rows = append(rows, Row{Experiment: "fig11", Dataset: name, System: "grfusion-view",
			Param: param, Metric: "maint_overhead_ms_per_op", Value: best[1] - best[0]})

		// Native Graph-Core: any source update invalidates the extracted
		// graph (Figure 1(b)); a fresh query needs a full re-extraction,
		// whose cost scales with |V|+|E| — unlike the O(1)-per-op
		// incremental maintenance above.
		start := time.Now()
		if _, err := graphstore.Reextract(d.Directed, d, false); err != nil {
			panic(err)
		}
		full := float64(time.Since(start).Microseconds()) / 1000
		rows = append(rows, Row{Experiment: "fig11", Dataset: name, System: "graphcore-reextract",
			Param: param, Metric: "full_reextract_ms", Value: full,
			Note: "paid per update batch before the graph is queryable again"})
	}
	return rows
}

// dmlBatch prepares the Fig 11 edge DML on eng and returns a run that
// inserts batch edges, deletes them again and reports ms per statement.
// Prepared DML is the VoltDB procedure model, so the measurement is the
// mutation plus maintenance, not statement parsing.
func dmlBatch(eng *core.Engine, d *datagen.Dataset, batch int64) func() float64 {
	ins, err := eng.PrepareDML(fmt.Sprintf("INSERT INTO %s_e VALUES (?, ?, ?, 1.0, ?, 'A')", d.Name))
	if err != nil {
		panic(err)
	}
	del, err := eng.PrepareDML(fmt.Sprintf("DELETE FROM %s_e WHERE eid = ?", d.Name))
	if err != nil {
		panic(err)
	}
	base := int64(len(d.Edges)) + 1000
	nv := int64(len(d.Vertices))
	return func() float64 {
		start := time.Now()
		for i := int64(0); i < batch; i++ {
			if _, err := ins.Exec(types.NewInt(base+i), types.NewInt(i%nv),
				types.NewInt((i*7+3)%nv), types.NewInt(i%100)); err != nil {
				panic(err)
			}
		}
		for i := int64(0); i < batch; i++ {
			if _, err := del.Exec(types.NewInt(base + i)); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000 / float64(2*batch)
	}
}

// fastest runs each of runs reps times, interleaved in rotating order so
// drift hits all of them alike, and returns each one's fastest result.
// Every run does the same work each time, so interference can only slow
// it down: the minimum is its cost.
func fastest(reps int, runs ...func() float64) []float64 {
	best := make([]float64, len(runs))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for r := 0; r < reps; r++ {
		for j := range runs {
			i := (r + j) % len(runs)
			best[i] = math.Min(best[i], runs[i]())
		}
	}
	return best
}

// Ablation benchmarks the design choices DESIGN.md calls out: §6.2
// pushdown, §6.3 physical traversal selection, and the
// materialized-versus-pipelined join execution model.
func Ablation(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)

	// Pushdown on/off: the edges each configuration traverses (from one
	// EXPLAIN ANALYZE; the gated count) and its time (reported). For
	// visit-once scans pushdown is semantic (it defines the traversed
	// sub-graph), so the ablation uses the per-path triangle pattern, where
	// pushing the selectivity predicate into the traversal is a pure
	// optimization over residual filtering.
	for _, name := range []string{"dblp", "road"} {
		d := ds[name]
		q := fmt.Sprintf(`SELECT COUNT(P) FROM %s.Paths P
			WHERE P.Length = 3 AND P.Edges[0..*].sel < 10
			AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`, d.Name)
		systems := []string{"pushdown-on", "pushdown-off"}
		var runs []func() float64
		for i, opts := range []plan.Options{{}, {DisablePushdown: true}} {
			eng, err := LoadGRFusion(d, opts)
			if err != nil {
				panic(err)
			}
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: systems[i],
				Param: "triangles sel=10", Metric: "edges_traversed", Value: edgesTraversed(eng, q)})
			runs = append(runs, func() float64 {
				start := time.Now()
				if _, err := eng.Execute(q); err != nil {
					panic(err)
				}
				return float64(time.Since(start).Microseconds()) / 1000
			})
		}
		for i, ms := range fastest(5, runs...) {
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: systems[i],
				Param: "triangles sel=10", Metric: "ms", Value: ms})
		}
	}

	// BFS vs DFS vs the §6.3 rule on targeted reachability: one engine,
	// the reach query prepared with each hint and unhinted, each the
	// fastest of five interleaved passes over the pairs. The query names
	// its target, so the rule plans BFScan: rule and bfs run one plan.
	for _, name := range []string{"road", "twitter"} {
		d := ds[name]
		g := d.Build()
		pairs := datagen.PairsAtDistance(g, 6, cfg.Queries, cfg.Seed+400)
		if len(pairs) == 0 {
			continue
		}
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		systems := []string{"bfs", "dfs", "rule"}
		var runs []func() float64
		for _, hint := range []string{"HINT(BFS)", "HINT(DFS)", ""} {
			reach, err := prepareReach(eng, d.Name, hint, false)
			if err != nil {
				panic(err)
			}
			runs = append(runs, func() float64 {
				start := time.Now()
				for _, p := range pairs {
					if _, err := reach.Query(types.NewInt(p.Src), types.NewInt(p.Dst)); err != nil {
						panic(err)
					}
				}
				return float64(time.Since(start).Microseconds()) / float64(len(pairs)) / 1000
			})
		}
		for i, ms := range fastest(5, runs...) {
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: "traversal-" + systems[i],
				Param: "reach len=6", Metric: "avg_ms", Value: ms})
		}
	}

	// Materialized vs pipelined SQLGraph at depth 4 (temp-table cost).
	for _, name := range []string{"road"} {
		d := ds[name]
		g := d.Build()
		pairs := datagen.PairsAtDistance(g, 4, cfg.Queries, cfg.Seed+500)
		if len(pairs) == 0 {
			continue
		}
		for _, m := range []struct {
			system string
			mode   sqlgraph.Mode
		}{
			{"sqlgraph-mat", sqlgraph.Materialized},
			{"sqlgraph-pipe", sqlgraph.Pipelined},
		} {
			s, err := sqlgraph.Load(d, "ab", m.mode, 0)
			if err != nil {
				panic(err)
			}
			ms, note := timeAvgMS(len(pairs), func(i int) error {
				_, err := s.Reachable(pairs[i].Src, pairs[i].Dst, 4, -1)
				return err
			})
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: m.system,
				Param: "reach len=4", Metric: "avg_ms", Value: ms, Note: note})
		}
	}
	return rows
}

// Experiment is one registered experiment.
type Experiment struct {
	ID  string
	Run func(Config) []Row
}

// Experiments lists every experiment in paper order, for cmd/grbench:
// the paper's tables and figures, then the engine's ratio experiments
// whose rows Gates checks.
var Experiments = []Experiment{
	{"table2", Table2},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"table3", Table3},
	{"fig11", Fig11},
	{"ablation", Ablation},
	{"concurrency", mvccStorm},
	{"observability", Observability},
	{"wire", wireBench},
}

// All runs every experiment in paper order.
func All(cfg Config) []Row {
	var rows []Row
	for _, e := range Experiments {
		rows = append(rows, e.Run(cfg)...)
	}
	return rows
}

// edgesTraversed runs q once under EXPLAIN ANALYZE and returns its
// edges_traversed counter.
func edgesTraversed(eng *core.Engine, q string) float64 {
	res, err := eng.Execute("EXPLAIN ANALYZE " + q)
	if err != nil {
		panic(err)
	}
	for _, r := range res.Rows {
		var n float64
		var paths int64
		if _, err := fmt.Sscanf(r[0].S, "Counters: edges_traversed=%g paths_emitted=%d", &n, &paths); err == nil {
			return n
		}
	}
	panic("EXPLAIN ANALYZE printed no Counters line")
}
