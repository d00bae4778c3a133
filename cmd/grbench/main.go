// Command grbench runs the paper-reproduction experiments, prints the
// rows/series each table and figure of the evaluation reports, and checks
// them against the claim table (internal/bench/gate.go): every violated
// gate row is printed as a "GATE FAIL" line and the exit status is 1.
//
// Usage:
//
//	grbench -list
//	grbench -exp fig7 -scale 1.0 -queries 10
//	grbench -exp all                 # make gate
//	grbench -experiment oracle -seed 42 -duration 30s
//	grbench -experiment recovery -seed 42 -duration 30s
//
// The gate thresholds hold at the default scale and query count; other
// settings still run every gate, so a violation there is a finding about
// that configuration.
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
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"grfusion/internal/bench"
	"grfusion/internal/oracle"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list), all, oracle or recovery")
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
	)
	flag.Parse()
	if *expAlias != "" {
		*exp = *expAlias
	}

	run, ids := bench.All, make([]string, 0, len(bench.Experiments))
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
		if e.ID == *exp {
			run = e.Run
		}
	}
	if *list {
		fmt.Println("experiments:", strings.Join(ids, ", "), "(or: all, oracle, recovery)")
		return
	}
	if *exp == "oracle" || *exp == "recovery" {
		os.Exit(runOracle(*exp, *seed, *rounds, *duration, *workers))
	}
	if *exp != "all" && !slices.Contains(ids, *exp) {
		fmt.Fprintf(os.Stderr, "grbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}

	cfg := bench.Config{
		Scale:       *scale,
		Queries:     *queries,
		Seed:        *seed,
		MaxJoinHops: *hops,
		MemLimit:    *mem,
	}
	start := time.Now()
	rows := run(cfg)
	fmt.Print(bench.Format(rows))
	fmt.Printf("\n%d data points in %s (scale=%g, queries=%d, seed=%d)\n",
		len(rows), time.Since(start).Round(time.Millisecond), *scale, *queries, *seed)
	os.Exit(gate(os.Stdout, os.Stderr, rows, runtime.GOMAXPROCS(0)))
}

// gate checks a run's rows against the claim table, writes one "GATE FAIL"
// line per violated row to stderr, and returns the process exit code.
func gate(stdout, stderr io.Writer, rows []bench.Row, cores int) int {
	errs := bench.Check(rows, cores)
	for _, err := range errs {
		fmt.Fprintf(stderr, "GATE FAIL %v\n", err)
	}
	if len(errs) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "gate: every claim holds")
	return 0
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
