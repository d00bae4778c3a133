package bench

import (
	"fmt"
	"math"
	"time"

	"grfusion/internal/datagen"
	"grfusion/internal/plan"
	"grfusion/internal/types"
)

// Observability quantifies the cost of the observability layer on a
// prepared path-enumeration workload (the paper's steady-state query
// model). Four modes run *interleaved per iteration* — sequential blocks
// would measure machine drift, not the layer:
//
//   - "off":    the default engine path — per-statement counters and the
//     latency histogram fire, but plans run bare. A second identical run
//     ("off-b") inside the same interleave bounds the measurement noise;
//     the layer's at-rest cost is indistinguishable from that band.
//   - "slowlog-armed": SET SLOW_QUERY with an unreachable threshold, so
//     every plan runs through the instrumentation wrappers (sampled
//     per-operator row/time accounting) without ever logging. This is
//     the opt-in overhead an operator accepts while hunting a slow
//     statement.
//   - "explain-analyze": the full ad-hoc EXPLAIN ANALYZE round trip
//     (parse + plan + instrumented run + rendering), reported for
//     context — it is a diagnostic statement, not a steady-state mode.
//
// overhead_on_pct rows compare each mode against "off"; noise_pct is the
// A/A spread. The acceptance bar is armed overhead < 5% and off ≈ 0
// (within noise).
func Observability(cfg Config) []Row {
	cfg = cfg.Defaults()
	var rows []Row
	ds := Datasets(cfg)
	// Path enumeration (not LIMIT-1 probes): the instrumentation wrappers
	// have a fixed per-statement cost of a few microseconds, so the honest
	// overhead question is against statements that do real traversal work —
	// the sub-millisecond-and-up regime the slow-query log exists for.
	// Depths are tuned per dataset to land each statement there.
	depths := map[string]int{"protein": 3, "dblp": 14}
	const reps = 20
	for _, name := range []string{"protein", "dblp"} {
		d := ds[name]
		g := d.Build()
		eng, err := LoadGRFusion(d, plan.Options{})
		if err != nil {
			panic(err)
		}
		countPaths, err := eng.Prepare(fmt.Sprintf(
			`SELECT COUNT(*) FROM %s.Paths PS WHERE PS.StartVertex.Id = ? AND PS.Length <= %d`,
			d.Name, depths[name]))
		if err != nil {
			panic(err)
		}
		pairs := datagen.PairsAtDistance(g, 4, cfg.Queries, cfg.Seed+77)
		if len(pairs) == 0 {
			continue
		}
		add := func(param, metric string, v float64, note string) {
			rows = append(rows, Row{Experiment: "observability", Dataset: name,
				System: "grfusion", Param: param, Metric: metric, Value: v, Note: note})
		}

		prepared := func(i int) {
			if _, err := countPaths.Query(types.NewInt(pairs[i%len(pairs)].Src)); err != nil {
				panic(err)
			}
		}
		analyzeOne := func(i int) {
			if _, err := eng.Execute(fmt.Sprintf(
				`EXPLAIN ANALYZE SELECT COUNT(*) FROM %s.Paths PS WHERE PS.StartVertex.Id = %d AND PS.Length <= %d`,
				d.Name, pairs[i%len(pairs)].Src, depths[name])); err != nil {
				panic(err)
			}
		}
		time1 := func(fn func(int), i int) time.Duration {
			t0 := time.Now()
			fn(i)
			return time.Since(t0)
		}

		// Warm up, then interleave all four modes within each iteration so
		// slow drift (frequency scaling, GC cycles, co-tenants) hits every
		// mode equally instead of whichever block ran last.
		n := len(pairs) * reps
		for i := 0; i < len(pairs); i++ {
			prepared(i)
		}
		// Per-iteration samples, summarized by the per-pair minimum sum: each
		// statement does deterministic work, so the minimum over reps is its
		// true cost with the GC/scheduler interference stripped — the robust
		// statistic at sub-millisecond statement times — and summing per-pair
		// minimums keeps the per-start-vertex cost differences in.
		samples := map[string][]time.Duration{}
		runMode := map[string]func(int) time.Duration{
			"offA": func(i int) time.Duration { return time1(prepared, i) },
			"offB": func(i int) time.Duration { return time1(prepared, i) },
			"armed": func(i int) time.Duration {
				eng.SetSlowQuery(time.Hour)
				defer eng.SetSlowQuery(0)
				return time1(prepared, i)
			},
			"analyze": func(i int) time.Duration { return time1(analyzeOne, i) },
		}
		order := []string{"offA", "armed", "offB", "analyze"}
		for i := 0; i < n; i++ {
			// Rotate the mode order each iteration: whichever mode follows
			// the allocation-heavy analyze statement inherits its GC debt,
			// so no mode may hold a fixed position.
			for j := range order {
				mode := order[(i+j)%len(order)]
				samples[mode] = append(samples[mode], runMode[mode](i))
			}
		}
		minSum := func(mode string) time.Duration {
			var total time.Duration
			for p := 0; p < len(pairs); p++ {
				best := time.Duration(math.MaxInt64)
				for i := p; i < n; i += len(pairs) {
					if d := samples[mode][i]; d < best {
						best = d
					}
				}
				total += best
			}
			return total
		}
		offA, offB, armed, analyze := minSum("offA"), minSum("offB"), minSum("armed"), minSum("analyze")
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(pairs)) / 1e6 }
		pct := func(d time.Duration) float64 {
			if offA <= 0 {
				return 0
			}
			return float64(d-offA) / float64(offA) * 100
		}
		add("off", "avg_ms", ms(offA), "")
		add("off-b", "avg_ms", ms(offB), "")
		add("off-b", "noise_pct", math.Abs(pct(offB)), "A/A spread of the uninstrumented path")
		add("slowlog-armed", "avg_ms", ms(armed), "")
		add("slowlog-armed", "overhead_on_pct", pct(armed), "instrumented plans, no logging")
		add("explain-analyze", "avg_ms", ms(analyze), "")
		add("explain-analyze", "overhead_on_pct", pct(analyze), "ad-hoc parse+plan+instrumented run+render")
	}
	return rows
}
