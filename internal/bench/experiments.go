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
// cost is pure execution). withSel adds the selectivity predicate with a
// third parameter.
func prepareReach(eng *core.Engine, view string, withSel bool) (*core.Prepared, error) {
	q := fmt.Sprintf(`SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ?`, view)
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

		// GRFusion configured as in §7.1: BFS, no pushdown.
		eng, err := LoadGRFusion(d, plan.Options{DisablePushdown: true, ForceTraversal: "bfs"})
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
		neo := graphstore.New(d.Directed)
		titan := graphstore.NewSerialized(d.Directed)
		if err := graphstore.Load(neo, d); err != nil {
			panic(err)
		}
		if err := graphstore.Load(titan, d); err != nil {
			panic(err)
		}

		reach, err := prepareReach(eng, d.Name, false)
		if err != nil {
			panic(err)
		}
		matDead := false
		for _, l := range Fig7Lengths {
			pairs := pairsForLength(g, l, cfg.Queries, cfg.Seed+int64(l))
			if len(pairs) == 0 {
				continue
			}
			param := lenParam(l)

			ms, note := timeAvgMS(len(pairs), func(i int) error {
				_, err := reach.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst))
				return err
			})
			rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "grfusion",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})

			if !matDead && l <= cfg.MaxJoinHops {
				ms, note = timeAvgMS(len(pairs), func(i int) error {
					_, err := sgMat.Reachable(pairs[i].Src, pairs[i].Dst, l, -1)
					return err
				})
				rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "sqlgraph-mat",
					Param: param, Metric: "avg_ms", Value: ms, Note: note})
				if note != "" {
					matDead = true // the paper stops reporting after the abort
				}
			}

			if l <= cfg.MaxJoinHops && projectedWalks(d, l) <= walkBudget {
				ms, note = timeAvgMS(len(pairs), func(i int) error {
					_, err := sgPipe.Reachable(pairs[i].Src, pairs[i].Dst, l, -1)
					return err
				})
				rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "sqlgraph-pipe",
					Param: param, Metric: "avg_ms", Value: ms, Note: note})
			} else if l <= cfg.MaxJoinHops {
				rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "sqlgraph-pipe",
					Param: param, Metric: "avg_ms", Value: 0,
					Note: "SKIP: projected walk explosion (paper: 5h timeout)"})
			}

			ms, note = timeAvgMS(len(pairs), func(i int) error {
				graphstore.Reachable(neo, pairs[i].Src, pairs[i].Dst, 0, nil)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "neo4j-like",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})

			ms, note = timeAvgMS(len(pairs), func(i int) error {
				graphstore.Reachable(titan, pairs[i].Src, pairs[i].Dst, 0, nil)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig7", Dataset: name, System: "titan-like",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})
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
		pairs := pairsForLength(g, depth, cfg.Queries, cfg.Seed+100)
		if len(pairs) == 0 {
			continue
		}
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		reach, err := prepareReach(eng, d.Name, true)
		if err != nil {
			panic(err)
		}
		sgPipe, err := sqlgraph.Load(d, "sp", sqlgraph.Pipelined, 0)
		if err != nil {
			panic(err)
		}
		neo := graphstore.New(d.Directed)
		titan := graphstore.NewSerialized(d.Directed)
		graphstore.Load(neo, d)
		graphstore.Load(titan, d)

		for _, sel := range SelSweep {
			param := selParam(sel)
			ms, note := timeAvgMS(len(pairs), func(i int) error {
				_, err := reach.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst), types.NewInt(int64(sel)))
				return err
			})
			rows = append(rows, Row{Experiment: "fig8", Dataset: name, System: "grfusion",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})

			if projectedWalks(d, depth) <= walkBudget {
				ms, note = timeAvgMS(len(pairs), func(i int) error {
					_, err := sgPipe.Reachable(pairs[i].Src, pairs[i].Dst, depth, sel)
					return err
				})
				rows = append(rows, Row{Experiment: "fig8", Dataset: name, System: "sqlgraph-pipe",
					Param: param, Metric: "avg_ms", Value: ms, Note: note})
			}

			f := storeFilter(sel)
			ms, _ = timeAvgMS(len(pairs), func(i int) error {
				graphstore.Reachable(neo, pairs[i].Src, pairs[i].Dst, 0, f)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig8", Dataset: name, System: "neo4j-like",
				Param: param, Metric: "avg_ms", Value: ms})
			ms, _ = timeAvgMS(len(pairs), func(i int) error {
				graphstore.Reachable(titan, pairs[i].Src, pairs[i].Dst, 0, f)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig8", Dataset: name, System: "titan-like",
				Param: param, Metric: "avg_ms", Value: ms})
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
		neo := graphstore.New(d.Directed)
		titan := graphstore.NewSerialized(d.Directed)
		graphstore.Load(neo, d)
		graphstore.Load(titan, d)

		for _, sel := range sweep {
			param := selParam(sel)
			selArg := sel
			if sel >= 100 {
				selArg = -1
			}
			ms, note := timeAvgMS(len(pairs), func(i int) error {
				var err error
				if selArg >= 0 {
					_, err = spSel.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst), types.NewInt(int64(selArg)))
				} else {
					_, err = spPlain.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst))
				}
				return err
			})
			rows = append(rows, Row{Experiment: "fig9", Dataset: name, System: "grfusion",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})

			ms, note = timeAvgMS(len(pairs), func(i int) error {
				_, _, err := gr.ShortestPath(pairs[i].Src, pairs[i].Dst, selArg)
				return err
			})
			rows = append(rows, Row{Experiment: "fig9", Dataset: name, System: "grail",
				Param: param, Metric: "avg_ms", Value: ms, Note: note})

			f := storeFilter(selArg)
			ms, _ = timeAvgMS(len(pairs), func(i int) error {
				graphstore.ShortestPath(neo, pairs[i].Src, pairs[i].Dst, "w", f)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig9", Dataset: name, System: "neo4j-like",
				Param: param, Metric: "avg_ms", Value: ms})
			ms, _ = timeAvgMS(len(pairs), func(i int) error {
				graphstore.ShortestPath(titan, pairs[i].Src, pairs[i].Dst, "w", f)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig9", Dataset: name, System: "titan-like",
				Param: param, Metric: "avg_ms", Value: ms})
		}
	}
	return rows
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
		neo := graphstore.New(d.Directed)
		titan := graphstore.NewSerialized(d.Directed)
		graphstore.Load(neo, d)
		graphstore.Load(titan, d)

		for _, sel := range SelSweep {
			param := selParam(sel)
			var grfCount int64
			ms, note := timeAvgMS(3, func(int) error {
				q := fmt.Sprintf(`SELECT COUNT(P) FROM %s.Paths P
					WHERE P.Length = 3 AND P.Edges[0..*].sel < %d
					AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`, d.Name, sel)
				res, err := eng.Execute(q)
				if err == nil {
					grfCount = res.Rows[0][0].I
				}
				return err
			})
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "grfusion",
				Param: param, Metric: "ms", Value: ms, Note: note})

			var sgCount int64
			ms, note = timeAvgMS(3, func(int) error {
				var err error
				sgCount, err = sg.CountTriangles(sel)
				return err
			})
			nt := note
			if nt == "" && sgCount != grfCount {
				nt = fmt.Sprintf("COUNT MISMATCH: %d vs grfusion %d", sgCount, grfCount)
			}
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "sqlgraph-pipe",
				Param: param, Metric: "ms", Value: ms, Note: nt})

			f := storeFilter(sel)
			var neoCount int
			ms, _ = timeAvgMS(3, func(int) error {
				neoCount = graphstore.CountTriangles(neo, f)
				return nil
			})
			nt = ""
			if int64(neoCount) != grfCount {
				nt = fmt.Sprintf("COUNT MISMATCH: %d vs grfusion %d", neoCount, grfCount)
			}
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "neo4j-like",
				Param: param, Metric: "ms", Value: ms, Note: nt})

			ms, _ = timeAvgMS(3, func(int) error {
				graphstore.CountTriangles(titan, f)
				return nil
			})
			rows = append(rows, Row{Experiment: "fig10", Dataset: name, System: "titan-like",
				Param: param, Metric: "ms", Value: ms})
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
		ddl := fmt.Sprintf(`
			CREATE TABLE %s_v (vid BIGINT PRIMARY KEY, name VARCHAR);
			CREATE TABLE %s_e (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT, lbl VARCHAR);
		`, name, name)
		if _, err := eng.ExecuteScript(ddl); err != nil {
			panic(err)
		}
		if err := bulkLoad(eng, d); err != nil {
			panic(err)
		}
		dir := "DIRECTED"
		if !d.Directed {
			dir = "UNDIRECTED"
		}
		start := time.Now()
		if _, err := eng.Execute(fmt.Sprintf(`
			CREATE %s GRAPH VIEW %s
			VERTEXES(ID = vid, name = name) FROM %s_v
			EDGES(ID = eid, FROM = src, TO = dst, w = w, sel = sel, lbl = lbl) FROM %s_e`,
			dir, name, name, name)); err != nil {
			panic(err)
		}
		buildMS := float64(time.Since(start).Microseconds()) / 1000

		gv, _ := eng.Catalog().GraphView(name)
		vt, _ := eng.Catalog().Table(name + "_v")
		et, _ := eng.Catalog().Table(name + "_e")
		topo := float64(gv.G.ApproxBytes())
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
	var rows []Row
	ds := Datasets(cfg)
	for _, name := range DatasetNames {
		d := ds[name]

		perOpMS := map[string]float64{}
		run := func(system string, withView bool) {
			var eng *core.Engine
			var err error
			if withView {
				eng, err = LoadGRFusion(d, plan.Options{})
			} else {
				eng = core.New(core.Options{})
				ddl := fmt.Sprintf(`
					CREATE TABLE %s_v (vid BIGINT PRIMARY KEY, name VARCHAR);
					CREATE TABLE %s_e (eid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, w DOUBLE, sel BIGINT, lbl VARCHAR);
				`, name, name)
				if _, err2 := eng.ExecuteScript(ddl); err2 == nil {
					err = bulkLoad(eng, d)
				} else {
					err = err2
				}
			}
			if err != nil {
				panic(err)
			}
			base := int64(len(d.Edges)) + 1000
			nv := int64(len(d.Vertices))
			// Prepared DML: the VoltDB procedure model, so the measurement
			// is the mutation + maintenance, not statement parsing.
			ins, err := eng.PrepareDML(fmt.Sprintf(
				"INSERT INTO %s_e VALUES (?, ?, ?, 1.0, ?, 'A')", name))
			if err != nil {
				panic(err)
			}
			del, err := eng.PrepareDML(fmt.Sprintf("DELETE FROM %s_e WHERE eid = ?", name))
			if err != nil {
				panic(err)
			}
			start := time.Now()
			for i := int64(0); i < batch; i++ {
				src := i % nv
				dst := (i*7 + 3) % nv
				if _, err := ins.Exec(types.NewInt(base+i), types.NewInt(src),
					types.NewInt(dst), types.NewInt(i%100)); err != nil {
					panic(err)
				}
			}
			for i := int64(0); i < batch; i++ {
				if _, err := del.Exec(types.NewInt(base + i)); err != nil {
					panic(err)
				}
			}
			perOp := float64(time.Since(start).Microseconds()) / 1000 / (2 * batch)
			perOpMS[system] = perOp
			rows = append(rows, Row{Experiment: "fig11", Dataset: name, System: system,
				Param: fmt.Sprintf("batch=%d", batch), Metric: "ms_per_op", Value: perOp})
		}
		run("table-only", false)
		run("grfusion-view", true)
		// Incremental maintenance cost in isolation: the view-engine delta
		// over the bare-table engine (statement overhead cancels out).
		rows = append(rows, Row{Experiment: "fig11", Dataset: name, System: "grfusion-view",
			Param: fmt.Sprintf("batch=%d", batch), Metric: "maint_overhead_ms_per_op",
			Value: perOpMS["grfusion-view"] - perOpMS["table-only"]})

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
			Param: fmt.Sprintf("batch=%d", batch), Metric: "full_reextract_ms", Value: full,
			Note: "paid per update batch before the graph is queryable again"})
	}
	return rows
}

// Ablation benchmarks the design choices DESIGN.md calls out: §6.2
// pushdown, §6.3 physical traversal selection, and the
// materialized-versus-pipelined join execution model.
func Ablation(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)

	// Pushdown on/off. For visit-once scans pushdown is semantic (it
	// defines the traversed sub-graph), so the ablation uses the per-path
	// triangle pattern, where pushing the selectivity predicate into the
	// traversal is a pure optimization over residual filtering.
	for _, name := range []string{"dblp", "road"} {
		d := ds[name]
		for _, mode := range []struct {
			system string
			opts   plan.Options
		}{
			{"pushdown-on", plan.Options{}},
			{"pushdown-off", plan.Options{DisablePushdown: true}},
		} {
			eng, err := LoadGRFusion(d, mode.opts)
			if err != nil {
				panic(err)
			}
			q := fmt.Sprintf(`SELECT COUNT(P) FROM %s.Paths P
				WHERE P.Length = 3 AND P.Edges[0..*].sel < 10
				AND P.Edges[2].EndVertex = P.Edges[0].StartVertex`, d.Name)
			ms, note := timeAvgMS(3, func(int) error {
				_, err := eng.Execute(q)
				return err
			})
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: mode.system,
				Param: "triangles sel=10", Metric: "ms", Value: ms, Note: note})
		}
	}

	// BFS vs DFS vs the §6.3 rule on bounded path enumeration.
	for _, name := range []string{"road", "twitter"} {
		d := ds[name]
		g := d.Build()
		pairs := pairsForLength(g, 6, cfg.Queries, cfg.Seed+400)
		if len(pairs) == 0 {
			continue
		}
		for _, force := range []string{"bfs", "dfs", ""} {
			system := "rule"
			if force != "" {
				system = force
			}
			eng, err := LoadGRFusion(d, plan.Options{ForceTraversal: force})
			if err != nil {
				panic(err)
			}
			reach, err := prepareReach(eng, d.Name, false)
			if err != nil {
				panic(err)
			}
			ms, note := timeAvgMS(len(pairs), func(i int) error {
				_, err := reach.Query(types.NewInt(pairs[i].Src), types.NewInt(pairs[i].Dst))
				return err
			})
			rows = append(rows, Row{Experiment: "ablation", Dataset: name, System: "traversal-" + system,
				Param: "reach len=6", Metric: "avg_ms", Value: ms, Note: note})
		}
	}

	// Materialized vs pipelined SQLGraph at depth 4 (temp-table cost).
	for _, name := range []string{"road"} {
		d := ds[name]
		g := d.Build()
		pairs := pairsForLength(g, 4, cfg.Queries, cfg.Seed+500)
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

// All runs every experiment in paper order.
func All(cfg Config) []Row {
	var rows []Row
	rows = append(rows, Table2(cfg)...)
	rows = append(rows, Fig7(cfg)...)
	rows = append(rows, Fig8(cfg)...)
	rows = append(rows, Fig9(cfg)...)
	rows = append(rows, Fig10(cfg)...)
	rows = append(rows, Table3(cfg)...)
	rows = append(rows, Fig11(cfg)...)
	rows = append(rows, Ablation(cfg)...)
	rows = append(rows, Concurrency(cfg)...)
	rows = append(rows, Observability(cfg)...)
	rows = append(rows, AnalyticsBench(cfg)...)
	rows = append(rows, DurabilityBench(cfg)...)
	rows = append(rows, DiskFaultBench(cfg)...)
	rows = append(rows, WireBench(cfg)...)
	return rows
}

// Experiments maps experiment ids to their runners, for cmd/grbench.
var Experiments = map[string]func(Config) []Row{
	"table2":        Table2,
	"fig7":          Fig7,
	"fig8":          Fig8,
	"fig9":          Fig9,
	"fig10":         Fig10,
	"table3":        Table3,
	"fig11":         Fig11,
	"ablation":      Ablation,
	"concurrency":   Concurrency,
	"observability": Observability,
	"analytics":     AnalyticsBench,
	"durability":    DurabilityBench,
	"diskfault":     DiskFaultBench,
	"wire":          WireBench,
}
