// Command grbench runs the paper-reproduction experiments and prints the
// rows/series each table and figure of the evaluation reports.
//
// Usage:
//
//	grbench -list
//	grbench -exp fig7 -scale 1.0 -queries 10
//	grbench -exp all -scale 0.5
//	grbench -experiment oracle -seed 42 -duration 30s
//	grbench -experiment recovery -seed 42 -duration 30s
//
// The oracle experiment runs the differential/metamorphic correctness
// harness (internal/oracle) instead of a benchmark: randomized DML + PATHS
// workloads cross-checked against independent reference implementations.
// On failure it writes ORACLE_repro.sql, prints a one-line repro command,
// and exits 1. The recovery experiment is the crash-recovery variant:
// every workload batch runs on a durable engine that is killed and
// recovered from its WAL before the cross-checks run.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"grfusion/internal/bench"
	"grfusion/internal/oracle"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table2, fig7, fig8, fig9, fig10, table3, fig11, ablation, concurrency, observability, analytics, durability, oracle, recovery, all)")
		expAlias = flag.String("experiment", "", "alias for -exp")
		scale    = flag.Float64("scale", 1.0, "dataset scale multiplier")
		queries  = flag.Int("queries", 10, "query instances averaged per data point")
		seed     = flag.Int64("seed", 42, "generator seed")
		hops     = flag.Int("maxhops", 8, "deepest traversal attempted by the SQLGraph baseline")
		mem      = flag.Int64("mem", 0, "intermediate-memory budget for VoltDB-style runs (bytes, 0 = default)")
		duration = flag.Duration("duration", 0, "oracle: wall-clock budget (0 = use -rounds)")
		rounds   = flag.Int("rounds", 0, "oracle: exact round count (0 = run until -duration)")
		workers  = flag.Int("workers", 2, "oracle: engine worker-pool size")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.String("json", "", "also write rows with run metadata to this JSON file (e.g. BENCH_concurrency.json)")
		baseline = flag.String("baseline", "", "analytics/concurrency/wire: regression-gate this run against a committed baseline JSON (exit 1 on >10% speedup loss, steady-state allocations, a storm read-p99 ratio past the MVCC ceiling, or a wire throughput ratio under its floor)")
	)
	flag.Parse()
	if *expAlias != "" {
		*exp = *expAlias
	}

	if *list {
		ids := make([]string, 0, len(bench.Experiments))
		for id := range bench.Experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println("experiments:", strings.Join(ids, ", "), "(or: all, oracle)")
		return
	}

	if *exp == "oracle" || *exp == "recovery" {
		os.Exit(runOracle(*exp, *seed, *rounds, *duration, *workers))
	}

	var check gate
	if *baseline != "" {
		var err error
		if check, err = gateFor(*exp); err != nil {
			fmt.Fprintf(os.Stderr, "grbench: %v\n", err)
			os.Exit(2)
		}
	}

	cfg := bench.Config{
		Scale:       *scale,
		Queries:     *queries,
		Seed:        *seed,
		MaxJoinHops: *hops,
		MemLimit:    *mem,
	}
	start := time.Now()
	var rows []bench.Row
	if *exp == "all" {
		rows = bench.All(cfg)
	} else {
		fn, ok := bench.Experiments[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "grbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		rows = fn(cfg)
	}
	fmt.Print(bench.Format(rows))
	fmt.Printf("\n%d data points in %s (scale=%g, queries=%d, seed=%d)\n",
		len(rows), time.Since(start).Round(time.Millisecond), *scale, *queries, *seed)
	if *jsonOut != "" {
		if err := bench.WriteJSONFile(*jsonOut, *exp, cfg, rows); err != nil {
			fmt.Fprintf(os.Stderr, "grbench: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if check != nil {
		if err := check(*baseline, rows, 0.10); err != nil {
			fmt.Fprintf(os.Stderr, "grbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s gate: no regression vs %s\n", *exp, *baseline)
	}
}

// gate checks one experiment's fresh rows against its committed baseline.
type gate func(baselinePath string, rows []bench.Row, tolerance float64) error

// gateFor returns the regression gate of an experiment. Asking for one on
// an experiment that has none is a usage error: falling through to some
// other experiment's gate would compare against the wrong rows.
func gateFor(exp string) (gate, error) {
	switch exp {
	case "analytics":
		return bench.CheckAnalyticsBaseline, nil
	case "concurrency":
		return bench.CheckConcurrencyBaseline, nil
	case "wire":
		return bench.CheckWireBaseline, nil
	}
	return nil, fmt.Errorf("-baseline: experiment %q has no regression gate (gated experiments: analytics, concurrency, wire)", exp)
}

// runOracle drives the correctness harness (mode "oracle" for the live
// differential battery, "recovery" for the kill-and-recover variant) and
// returns the process exit code: 0 when every check passed, 1 when a
// violation was found.
func runOracle(mode string, seed int64, rounds int, duration time.Duration, workers int) int {
	if rounds == 0 && duration == 0 {
		duration = 5 * time.Second
	}
	cfg := oracle.Config{
		Seed:     seed,
		Rounds:   rounds,
		Duration: duration,
		Workers:  workers,
		Log:      os.Stderr,
	}
	run := oracle.Run
	unit := "check batches"
	if mode == "recovery" {
		run = oracle.RunRecovery
		unit = "kill/recover cycles"
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grbench %s: %v\n", mode, err)
		return 2
	}
	fmt.Printf("%s: %d rounds, %d statements, %d %s in %s\n",
		mode, rep.Rounds, rep.Statements, rep.Batches, unit, rep.Elapsed.Round(time.Millisecond))
	if len(rep.Violations) == 0 {
		fmt.Printf("%s: 0 violations\n", mode)
		return 0
	}
	v := rep.Violations[0]
	fmt.Printf("%s: VIOLATION %s\n", mode, v)
	if err := writeRepro("ORACLE_repro.sql", mode, v); err != nil {
		fmt.Fprintf(os.Stderr, "grbench %s: write repro: %v\n", mode, err)
	} else {
		fmt.Printf("%s: wrote ORACLE_repro.sql\n", mode)
	}
	fmt.Printf("REPRO: go run ./cmd/grbench -experiment %s -seed %d -rounds 1\n", mode, v.Seed)
	return 1
}

// writeRepro renders a violation as a self-contained SQL script: a comment
// header with the diagnosis and repro command, the scenario setup, and the
// minimized statement log (falling back to the full log).
func writeRepro(path, mode string, v *oracle.Violation) error {
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s violation: %s\n", mode, v.Check)
	fmt.Fprintf(&b, "-- detail: %s\n", v.Detail)
	fmt.Fprintf(&b, "-- round seed: %d (batch %d)\n", v.Seed, v.Batch)
	fmt.Fprintf(&b, "-- repro: go run ./cmd/grbench -experiment %s -seed %d -rounds 1\n", mode, v.Seed)
	b.WriteString("\n-- setup\n")
	for _, s := range v.SetupSQL {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	stmts := v.Minimized
	if len(stmts) == 0 {
		stmts = v.Statements
	}
	fmt.Fprintf(&b, "\n-- workload (%d of %d recorded statements)\n", len(stmts), len(v.Statements))
	for _, s := range stmts {
		b.WriteString(s)
		b.WriteString(";\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
