// Command benchmark is the repository's one layered benchmark: four named
// workloads driven through server.Client against an in-process
// server.Server, end-to-end metrics with regression bounds, answers checked
// against a pure-Go reference, and a separate traced run that attributes
// time to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// warmUp is the untimed lead-in of every window: caches fill, prepared
// plans settle, the CSR is built.
const warmUp = 3 * time.Second

// setUps is how many fresh set-ups a run performs; setup_s is their median.
const setUps = 5

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"traverse.read", "oltp.adhoc", "graph.churn", "ingest.durable"}

// metricDef is one reported metric. bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; it mirrors BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	name, unit string
	higher     bool // true when larger is better
	bound      float64
}

var endToEnd = []metricDef{
	{"ops_per_s", "1/s", true, 0.25},
	{"read_p50_ms", "ms", false, 0.25},
	{"write_p50_ms", "ms", false, 0.25},
	{"p99_ms", "ms", false, 0.25},
	{"peak_mem_mb", "MB", false, 0.20},
	{"setup_s", "s", false, 0.25},
}

// workload is one named traffic mix with its data, reference model and
// checks.
type workload interface {
	name() string
	kinds() []opKind
	// setup builds a fresh system: DDL, COPY load, index and view builds,
	// connections and prepares. Its wall time is setup_s.
	setup() (*system, error)
	// drive runs the clients through warm-up and the timed window.
	drive(sys *system, win window) []*clientLog
	// verify quiesces and compares final state with the model.
	verify(sys *system) (attempted, failed int)
	// templates lists the prepared statements; an op's si indexes it.
	templates() []string
	// traceStream is the single-client op stream the traced run follows.
	traceStream() func() *op
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newWorkload(name string, seed uint64, outDir string) (workload, error) {
	switch name {
	case "traverse.read":
		return newTraverseRead(seed, clientCount()), nil
	case "oltp.adhoc":
		return newOLTPAdhoc(seed, clientCount()), nil
	case "graph.churn":
		return newGraphChurn(seed), nil
	case "ingest.durable":
		return newIngestDurable(seed, outDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints, in the form the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the machine-readable record of one run (-json).
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Clients    int                `json:"clients"`
	Result     result             `json:"result"`
	Info       map[string]float64 `json:"info"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload ("+strings.Join(workloadNames, ", ")+"); empty runs all four, each in a fresh child process")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 15, "length of the timed window, the same for every workload and both sides of a comparison")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and span files; 0 = end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and fail if any end-to-end metric differs by more than its bound")
		jsonPath  = flag.String("json", "", "also write the machine-readable report to this file")
		outDir    = flag.String("out", "out", "directory for span files and the durable workload's data (created; its contents are scratch)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be at least 1")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds, *outDir)
	case *name == "":
		_, err = runAll(*seed, *seconds, *trace != 0, *outDir, *jsonPath)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0, *outDir, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result line.
func runOne(name string, seed uint64, seconds int, trace bool, outDir, jsonPath string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	w, err := newWorkload(name, seed, outDir)
	if err != nil {
		return err
	}
	rep := report{Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clientCount(),
		Info: map[string]float64{}}
	fmt.Printf("workload %s  seed %d  window %ds  warm-up %s  clients %d  nproc %d  gomaxprocs %d\n",
		name, seed, seconds, warmUp, rep.Clients, rep.NProc, rep.GOMAXPROCS)
	fmt.Println("(results taken at a different nproc, gomaxprocs or window are not comparable)")

	if trace {
		err = runTraced(w, &rep, outDir)
	} else {
		err = runTimed(w, &rep)
	}
	if err != nil {
		return err
	}
	if jsonPath != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, _ := json.Marshal(rep.Result)
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Stdout.Sync()
		return fmt.Errorf("%s: %d of %d checks failed", name, rep.Result.Failed, rep.Result.Attempted)
	}
	return nil
}

// setUpMedian performs setUps fresh set-ups, keeps the last system and
// returns the median set-up time.
func setUpMedian(w workload) (*system, float64, error) {
	var sys *system
	var times []float64
	for i := 0; i < setUps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			// Return the discarded instance's memory before the next
			// set-up, so peak_mem_mb is one instance's peak.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		s, err := w.setup()
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	return sys, medianF(times), nil
}

// runTimed is the untraced run: set-up, warm-up, one timed window, checks.
func runTimed(w workload, rep *report) error {
	sys, setupS, err := setUpMedian(w)
	if err != nil {
		return err
	}
	defer sys.close()
	timed := time.Duration(rep.Seconds) * time.Second
	logs := w.drive(sys, newWindow(warmUp, timed))
	vAttempted, vFailed := w.verify(sys)

	s := summarize(w.kinds(), logs, timed)
	s.attempted += vAttempted
	s.failed += vFailed
	values := map[string]float64{
		"ops_per_s":    s.opsPerS,
		"read_p50_ms":  s.readP50,
		"write_p50_ms": s.writeP50,
		"p99_ms":       s.p99,
		"peak_mem_mb":  peakMemMB(),
		"setup_s":      setupS,
	}
	for k, v := range s.info {
		rep.Info[k] = v
	}
	if x, ok := w.(interface{ extra() map[string]float64 }); ok {
		for k, v := range x.extra() {
			rep.Info[k] = v
		}
	}
	rep.Result = result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: map[string]metricValue{}}
	fmt.Println("\nend-to-end metrics (tracing off):")
	for _, m := range endToEnd {
		v := values[m.name]
		if v <= 0 {
			rep.Result.Correct = false // a metric without samples is a broken run, not a zero
			rep.Result.Failed++
		}
		rep.Result.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		dir := "+"
		if m.higher {
			dir = "-"
		}
		fmt.Printf("  %-14s %12.4f %-4s  regression bound %s%.0f%%\n", m.name, v, m.unit, dir, m.bound*100)
	}
	printInfo(rep.Info)
	fmt.Printf("fail_ratio %d/%d\n", rep.Result.Failed, rep.Result.Attempted)
	return nil
}

func printInfo(info map[string]float64) {
	names := make([]string, 0, len(info))
	for k := range info {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("\ninformation (not gated):")
	for _, k := range names {
		fmt.Printf("  %-34s %14.4f\n", k, info[k])
	}
}

// summary is what one window's samples reduce to.
type summary struct {
	attempted, failed int
	opsPerS           float64
	readP50, writeP50 float64
	p99               float64
	info              map[string]float64
}

const msPerNS = 1e-6

// summarize computes the end-to-end metrics of one window. ops_per_s counts
// checked ops of closed-loop clients; paced clients run at a fixed rate and
// would only add a constant.
func summarize(kinds []opKind, logs []*clientLog, window time.Duration) summary {
	s := summary{info: map[string]float64{}}
	byFamily := map[family][]sample{}
	byKind := make([][]sample, len(kinds))
	closedOK := 0
	for _, l := range logs {
		for _, sm := range l.samples {
			s.attempted++
			if !sm.ok {
				s.failed++
				continue
			}
			f := kinds[sm.kind].family
			byFamily[f] = append(byFamily[f], sm)
			byKind[sm.kind] = append(byKind[sm.kind], sm)
			if len(l.late) == 0 {
				closedOK++
			}
		}
		if len(l.late) > 0 {
			late := make([]sample, len(l.late))
			var max time.Duration
			for i, d := range l.late {
				late[i].lat = int64(d)
				if d > max {
					max = d
				}
			}
			s.info["paced_late_p50_ms"] = windowPercentile(late, 0.5) * msPerNS
			s.info["paced_late_max_ms"] = float64(max) * msPerNS
		}
	}
	s.opsPerS = float64(closedOK) / window.Seconds()
	s.readP50 = windowPercentile(byFamily[read], 0.5) * msPerNS
	s.writeP50 = windowPercentile(byFamily[write], 0.5) * msPerNS
	all := append(append([]sample(nil), byFamily[read]...), byFamily[write]...)
	s.p99 = subWindowPercentile(all, window, 0.99) * msPerNS

	s.info["read_samples"] = float64(len(byFamily[read]))
	s.info["write_samples"] = float64(len(byFamily[write]))
	// Family tails are printed only where every sub-window holds enough
	// samples (>= 100) for a p99 to mean something.
	for f, name := range map[family]string{read: "read", write: "write"} {
		if len(byFamily[f]) >= 100*subWindows {
			s.info[name+"_p99_ms"] = subWindowPercentile(byFamily[f], window, 0.99) * msPerNS
		}
	}
	if b := byFamily[batch]; len(b) > 0 {
		s.info["batch_p50_ms"] = windowPercentile(b, 0.5) * msPerNS
		s.info["batch_samples"] = float64(len(b))
	}
	for k, ss := range byKind {
		if len(ss) > 0 {
			s.info["op."+kinds[k].name+".p50_ms"] = windowPercentile(ss, 0.5) * msPerNS
			s.info["op."+kinds[k].name+".samples"] = float64(len(ss))
		}
	}
	return s
}

// runChild runs one workload in a fresh process of this binary, so every
// workload starts from a clean heap and its peak memory is its own. The
// child's output is passed through; its last line is the result.
func runChild(name string, seed uint64, seconds int, trace bool, outDir string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", t, "-out", outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // waits for the child to exit
	os.Stdout.Write(out)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", name, runErr)
	}
	return res, nil
}

// runAll runs the four workloads one after another.
func runAll(seed uint64, seconds int, trace bool, outDir, jsonPath string) (map[string]result, error) {
	results := map[string]result{}
	var firstErr error
	for _, name := range workloadNames {
		res, err := runChild(name, seed, seconds, trace, outDir)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		results[name] = res
		fmt.Println()
	}
	if jsonPath != "" {
		b, _ := json.MarshalIndent(results, "", "  ")
		if err := os.WriteFile(jsonPath, append(b, '\n'), 0o644); err != nil {
			return results, err
		}
	}
	return results, firstErr
}

// runSelfcheck runs the full set twice back to back and fails when any
// end-to-end metric moved by more than its own bound between the two: the
// benchmark must agree with itself before it can judge a change.
func runSelfcheck(seed uint64, seconds int, outDir string) error {
	var runs [2]map[string]result
	for i := range runs {
		r, err := runAll(seed, seconds, false, outDir, "")
		if err != nil {
			return err
		}
		runs[i] = r
	}
	fmt.Printf("%-16s %-14s %14s %14s %8s %8s\n", "workload", "metric", "run 1", "run 2", "change", "bound")
	bad := 0
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a, b := runs[0][name].Metrics[m.name].Value, runs[1][name].Metrics[m.name].Value
			worse := (b - a) / a // positive = run 2 worse, for lower-is-better
			if m.higher {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.bound || -worse > m.bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %+7.1f%% %7.0f%%%s\n", name, m.name, a, b, worse*100, m.bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two runs of the same code by more than their bound", bad)
	}
	return nil
}
