package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/wal"
)

// streamHash folds the first n ops of a stream into one value.
func streamHash(next func() *op, n int) uint64 {
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		o := next()
		fmt.Fprintf(h, "%d|%d|%s|", o.kind, o.si, o.text)
		for _, p := range o.params {
			fmt.Fprintf(h, "%s,", p.String())
		}
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// Same seed, same op stream, byte for byte; another seed, another stream.
func TestStreamsAreSeeded(t *testing.T) {
	streams := map[string]func(seed uint64) func() *op{
		"traverse.read":  func(seed uint64) func() *op { return newTraverseRead(seed, 2).stream(1) },
		"oltp.adhoc":     func(seed uint64) func() *op { return newOLTPAdhoc(seed, 2).stream(1) },
		"graph.churn":    func(seed uint64) func() *op { return newGraphChurn(seed).traceStream() },
		"ingest.durable": func(seed uint64) func() *op { return newIngestDurable(seed, t.TempDir()).nextA },
	}
	for name, mk := range streams {
		a, b, c := streamHash(mk(7), 3000), streamHash(mk(7), 3000), streamHash(mk(8), 3000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams (%x, %x)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", name)
		}
	}
}

// The tail estimator is the median of the sub-windows' percentiles: right
// on a known distribution, and unmoved by a stall confined to one sub-window.
func TestSubWindowPercentile(t *testing.T) {
	window := 10 * time.Second
	var ss []sample
	for w := 0; w < subWindows; w++ {
		for i := 1; i <= 1000; i++ { // latencies 1..1000 us, uniform, in every sub-window
			at := int64(w)*int64(window)/subWindows + int64(i)*1000
			ss = append(ss, sample{ok: true, at: at, lat: int64(i) * 1000})
		}
	}
	if got := subWindowPercentile(ss, window, 0.99); got != 990_000 {
		t.Errorf("p99 of uniform 1..1000us = %v ns, want 990000", got)
	}
	if got := subWindowPercentile(ss, window, 0.5); got != 500_000 {
		t.Errorf("p50 of uniform 1..1000us = %v ns, want 500000", got)
	}
	stalled := append([]sample(nil), ss...)
	for i := range stalled[:1000] { // a stall inflates every latency of the first sub-window
		stalled[i].lat *= 50
	}
	if got := subWindowPercentile(stalled, window, 0.99); got != 990_000 {
		t.Errorf("p99 with one stalled sub-window = %v ns, want 990000 (the whole-window p99 is %v)",
			got, windowPercentile(stalled, 0.99))
	}
	if got := percentile([]int64{5}, 0.99); got != 5 {
		t.Errorf("p99 of one sample = %d", got)
	}
}

// A paced client's schedule does not move when an op overruns; the overrun
// shows as lateness and inside the next op's latency, which runs from its
// due time.
func TestPacedScheduleAndLateness(t *testing.T) {
	const interval = 20 * time.Millisecond
	win := newWindow(0, 5*interval)
	var log clientLog
	var sent []time.Time
	win.pacedLoop(interval, func(i int) (uint8, bool) {
		sent = append(sent, time.Now())
		if i == 1 {
			time.Sleep(interval + interval/2) // op 1 overruns its slot by half an interval
		}
		return 0, true
	}, &log)
	if len(log.samples) != 5 {
		t.Fatalf("got %d ops in 5 intervals", len(log.samples))
	}
	for i, sm := range log.samples {
		if want := int64(i) * int64(interval); sm.at != want {
			t.Errorf("op %d due at %v, want %v: the schedule must be fixed", i, time.Duration(sm.at), time.Duration(want))
		}
	}
	if late := log.late[2]; late < interval/2-2*time.Millisecond || late > interval {
		t.Errorf("op 2 was sent %v late, want about %v", late, interval/2)
	}
	if lat := time.Duration(log.samples[2].lat); lat < interval/2-2*time.Millisecond {
		t.Errorf("op 2's latency %v does not include the %v it waited behind op 1", lat, interval/2)
	}
	if late := log.late[0]; late > 5*time.Millisecond {
		t.Errorf("op 0 was sent %v late on an idle schedule", late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wire.codec", Start: 100, End: 110},
		{ID: 3, Parent: 1, Name: "core.Execute", Start: 110, End: 170},
		{ID: 4, Parent: 3, Name: "sql.Parse", Start: 170, End: 180},
		{ID: 5, Parent: 3, Name: "exec.run", Start: 180, End: 220},
		{ID: 6, Parent: 5, Name: "graph.NewCSRBFS", Start: 220, End: 270}, // longer than its parent
	}
	want := []int64{30, 10, 10, 10, 0, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	share := layerShares(spans)
	for layer, want := range map[string]float64{"server": 0.30, "wire": 0.10, "core": 0.10, "sql": 0.10, "exec": 0, "graph": 0.50} {
		if math.Abs(share[layer]-want) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", layer, share[layer], want)
		}
	}
}

// An acknowledged (synced) write survives crash + core.Open; a write that
// was never synced is dropped by CrashDiscard even though the operating
// system still had it.
func TestCrashDiscardDropsUnsyncedTail(t *testing.T) {
	dir := t.TempDir()
	fs := newRecFS()
	opts := core.Options{Durability: core.Durability{Dir: dir, Fsync: wal.FsyncAlways, FS: fs}}
	eng, _, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(q string) {
		t.Helper()
		if _, err := eng.Execute(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec(`CREATE TABLE t (k BIGINT PRIMARY KEY, v VARCHAR)`)
	exec(`INSERT INTO t VALUES (1, 'synced')`)
	exec(`SET WAL_FSYNC = OFF`)
	exec(`INSERT INTO t VALUES (2, 'page cache only')`)
	eng.Kill()

	before, _ := os.Stat(filepath.Join(dir, "wal.log"))
	if err := fs.CrashDiscard(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(filepath.Join(dir, "wal.log"))
	if after.Size() >= before.Size() {
		t.Fatalf("wal.log kept its unsynced tail: %d -> %d bytes", before.Size(), after.Size())
	}
	eng, _, err = core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Kill()
	res, err := eng.Execute(`SELECT k FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("after crash and recovery t holds %v, want only the synced row 1", res.Rows)
	}
	if c := fs.counts(); c.syncs == 0 || c.writes == 0 || c.bytes == 0 {
		t.Errorf("the wrapper recorded no device work: %+v", c)
	}
}

// BENCHMARK.json and the program must list the same workloads and metrics,
// with the same units, directions and bounds; the program prints exactly
// its lists.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, declared []metric, have []metricDef) {
		if len(declared) != len(have) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(declared), len(have))
		}
		for i, d := range declared {
			h := have[i]
			better := "lower"
			if h.higher {
				better = "higher"
			}
			if d.Name != h.name || d.Unit != h.unit || d.Better != better || d.Bound != h.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, d, h)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)

	// Every value the traced run computes has a listed name.
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.name] = true
	}
	v := map[string]float64{}
	fromSpans([]span{{ID: 1, Name: "op", End: 10}}, 1, v)
	fromCounters(map[string]int64{}, map[string]int64{}, summary{info: map[string]float64{"write_samples": 1}}, v)
	fromDevice(deviceCounts{}, deviceCounts{}, newOLTPAdhoc(1, 1), []*clientLog{{}}, newWindow(0, time.Second), v)
	for name := range v {
		if !listed[name] {
			t.Errorf("the traced run computes %q, which BENCHMARK.json does not list", name)
		}
	}
}
