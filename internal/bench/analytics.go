package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"grfusion/internal/graph"
	"grfusion/internal/plan"
)

// AnalyticsBench (experiment id "analytics") quantifies the whole-graph
// analytics kernels against their naive single-threaded pure-Go references
// on synthetic random graphs of increasing size:
//
//   - gated speedup rows compare the CSR kernels at workers = 1 against
//     the pointer-graph references — the win is the layout plus the
//     direction-optimizing frontier machinery, measured with zero
//     parallelism so the ratio is stable on 1-2 vCPU CI boxes;
//   - informational parallel rows report the same kernels at the host's
//     core count (never gated: the available parallelism tracks the
//     machine, not the code);
//   - allocs_per_op rows pin the steady-state zero-allocation contract for
//     components and degree;
//   - engine rows time the full SQL surface (SELECT over the TVFs) on an
//     evaluation dataset, informational.
//
// The regression gate in cmd/grbench compares speedup and allocation rows
// against the committed BENCH_analytics_baseline.json.
func AnalyticsBench(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	rows = append(rows, analyticsKernelRows(cfg)...)
	rows = append(rows, analyticsEngineRows(cfg)...)
	return rows
}

// analyticsSpeedup appends avg_ms rows for the reference and the CSR
// kernel plus their gated ratio.
func analyticsSpeedup(rows []Row, dataset, param string, refMS, csrMS float64, refNote, csrNote string) []Row {
	rows = append(rows,
		Row{Experiment: "analytics", Dataset: dataset, System: "ref", Param: param, Metric: "avg_ms", Value: refMS, Note: refNote},
		Row{Experiment: "analytics", Dataset: dataset, System: "csr-w1", Param: param, Metric: "avg_ms", Value: csrMS, Note: csrNote},
	)
	if csrMS > 0 && refNote == "" && csrNote == "" {
		rows = append(rows, Row{Experiment: "analytics", Dataset: dataset, System: "speedup",
			Param: param, Metric: "x", Value: refMS / csrMS})
	}
	return rows
}

// csrSizes are the synthetic kernel-benchmark sizes at Scale = 1.
var csrSizes = []struct {
	name   string
	nv, ne int
}{
	{"synth-2k", 2000, 8000},
	{"synth-8k", 8000, 32000},
	{"synth-20k", 20000, 80000},
}

// csrRandGraph builds a seeded random directed multigraph.
func csrRandGraph(name string, nv, ne int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(name, true)
	for i := 0; i < nv; i++ {
		if _, err := g.AddVertex(int64(i), uint64(i)+1); err != nil {
			panic(err)
		}
	}
	for i := 0; i < ne; i++ {
		from := rng.Int63n(int64(nv))
		to := rng.Int63n(int64(nv))
		if _, err := g.AddEdge(int64(i), from, to, uint64(i)+1); err != nil {
			panic(err)
		}
	}
	return g
}

// csrMinMS is the experiment's robust timer: the minimum of reps passes of
// timeAvgMS. Each pass does deterministic work, so GC pauses and scheduler
// preemption (this gate runs on shared 1-2 vCPU CI boxes) can only inflate
// a pass, never deflate it — the minimum is the true cost. An error aborts
// immediately and surfaces in the note.
func csrMinMS(reps, n int, fn func(i int) error) (float64, string) {
	best := math.MaxFloat64
	for r := 0; r < reps; r++ {
		ms, note := timeAvgMS(n, fn)
		if note != "" {
			return ms, note
		}
		if ms < best {
			best = ms
		}
	}
	return best, ""
}

// Kernel iteration budgets: fixed (eps = 0, no early stop) so reference
// and CSR sides do identical work and the ratio measures throughput only.
const (
	analyticsBenchPRIters = 10
	analyticsBenchLPIters = 5
)

func analyticsKernelRows(cfg Config) []Row {
	var rows []Row
	par := runtime.NumCPU()
	if par > 8 {
		par = 8
	}
	for _, sz := range csrSizes {
		nv, ne := scaled(sz.nv, cfg.Scale), scaled(sz.ne, cfg.Scale)
		g := csrRandGraph(sz.name, nv, ne, cfg.Seed+int64(nv))
		c := graph.BuildCSR(g)
		a := c.NewAnalytics()

		kernels := []struct {
			param string
			ref   func() error
			csr   func(workers int) error
		}{
			{"pagerank", func() error {
				_, _, err := graph.RefPageRank(nil, g, 0.85, analyticsBenchPRIters, 0)
				return err
			}, func(w int) error {
				_, _, err := a.PageRank(nil, w, 0.85, analyticsBenchPRIters, 0)
				return err
			}},
			{"components", func() error {
				_, _, err := graph.RefComponents(nil, g)
				return err
			}, func(w int) error {
				_, _, err := a.Components(nil, w)
				return err
			}},
			{"labelprop", func() error {
				_, _, err := graph.RefLabelProp(nil, g, analyticsBenchLPIters)
				return err
			}, func(w int) error {
				_, _, err := a.LabelProp(nil, w, analyticsBenchLPIters)
				return err
			}},
			{"degree", func() error {
				graph.RefDegrees(g)
				return nil
			}, func(w int) error {
				a.Degrees()
				return nil
			}},
		}
		for _, k := range kernels {
			k := k
			refMS, n1 := csrMinMS(3, 3, func(int) error { return k.ref() })
			csrMS, n2 := csrMinMS(3, 3, func(int) error { return k.csr(1) })
			rows = analyticsSpeedup(rows, sz.name, k.param, refMS, csrMS, n1, n2)
			if par > 1 {
				parMS, n3 := csrMinMS(3, 3, func(int) error { return k.csr(par) })
				rows = append(rows, Row{Experiment: "analytics", Dataset: sz.name,
					System: fmt.Sprintf("csr-w%d", par), Param: k.param,
					Metric: "avg_ms", Value: parMS, Note: n3})
			}
		}

		// The zero-allocation contract for the steady-state kernels
		// (testing.AllocsPerRun warms up once itself; one explicit run
		// populates the scratch pool first).
		allocCases := []struct {
			param string
			run   func()
		}{
			{"components", func() {
				h := c.NewAnalytics()
				if _, _, err := h.Components(nil, 1); err != nil {
					panic(err)
				}
				h.Release()
			}},
			{"degree", func() {
				h := c.NewAnalytics()
				h.Degrees()
				h.Release()
			}},
		}
		for _, ac := range allocCases {
			ac.run()
			allocs := testing.AllocsPerRun(5, ac.run)
			rows = append(rows, Row{Experiment: "analytics", Dataset: sz.name, System: "csr-w1",
				Param: ac.param, Metric: "allocs_per_op", Value: allocs})
		}
		a.Release()
	}
	return rows
}

// analyticsEngineRows times the SQL surface end to end — parse, plan, run
// the kernel, stream the relation — on one evaluation dataset per TVF.
// Informational (absolute timings track the machine).
func analyticsEngineRows(cfg Config) []Row {
	var rows []Row
	d := Datasets(cfg)["twitter"]
	eng, err := LoadGRFusion(d, plan.Options{})
	if err != nil {
		panic(err)
	}
	for _, q := range []struct{ param, sql string }{
		{"pagerank", fmt.Sprintf(`SELECT COUNT(*) FROM %s.PAGERANK(0.85, %d) X`, d.Name, analyticsBenchPRIters)},
		{"components", fmt.Sprintf(`SELECT COUNT(*) FROM %s.CONNECTED_COMPONENTS() X`, d.Name)},
		{"labelprop", fmt.Sprintf(`SELECT COUNT(*) FROM %s.LABEL_PROPAGATION(%d) X`, d.Name, analyticsBenchLPIters)},
		{"degree", fmt.Sprintf(`SELECT COUNT(*) FROM %s.DEGREE_CENTRALITY() X`, d.Name)},
	} {
		if _, err := eng.Execute(q.sql); err != nil {
			panic(err)
		}
		ms, note := csrMinMS(3, 3, func(int) error {
			_, err := eng.Execute(q.sql)
			return err
		})
		rows = append(rows, Row{Experiment: "analytics", Dataset: "twitter", System: "engine",
			Param: q.param, Metric: "avg_ms", Value: ms, Note: note})
	}
	return rows
}

// CheckAnalyticsBaseline is the regression gate for the analytics
// experiment: every speedup row in the committed baseline must be within
// tolerance of the fresh run, and no fresh allocs_per_op row may be above
// zero. Absolute timings are never compared.
func CheckAnalyticsBaseline(baselinePath string, rows []Row, tolerance float64) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base BenchJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	fresh := map[string]float64{}
	for _, r := range rows {
		if r.System == "speedup" && r.Metric == "x" {
			fresh[r.Dataset+"|"+r.Param] = r.Value
		}
		if r.Metric == "allocs_per_op" && r.Value > 0 {
			return fmt.Errorf("analytics gate: %s %s allocates %.1f/op in steady state, want 0",
				r.Dataset, r.Param, r.Value)
		}
	}
	var missing, regressed []string
	for _, r := range base.Rows {
		if r.System != "speedup" || r.Metric != "x" {
			continue
		}
		key := r.Dataset + "|" + r.Param
		cur, ok := fresh[key]
		if !ok {
			missing = append(missing, key)
			continue
		}
		if cur < r.Value*(1-tolerance) {
			regressed = append(regressed,
				fmt.Sprintf("%s: %.2fx, baseline %.2fx", key, cur, r.Value))
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("analytics gate: baseline rows missing from this run: %v", missing)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("analytics gate: speedup regressed more than %.0f%%: %v",
			tolerance*100, regressed)
	}
	return nil
}
