package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"grfusion/internal/graph"
)

// tracePrefix is how many ops of the workload's single-client stream the
// traced run follows; the run's -seconds caps the time spent on them.
const tracePrefix = 2000

// controlOps is how many further ops of the same stream run untraced on the
// same connection; trace.overhead_ratio compares the two.
const controlOps = 500

var perLayer = []metricDef{
	{"graph.kernel_us_per_op", "us", false, 0},
	{"graph.edges_traversed_per_op", "count", false, 0},
	{"graph.clone_ms", "ms", false, 0},
	{"graph.csr_build_ms", "ms", false, 0},
	{"graph.csr_hit_ratio", "ratio", true, 0},
	{"exec.self_us_per_op", "us", false, 0},
	{"exec.rows_examined_per_row_returned", "count", false, 0},
	{"sql.parse_us_per_op", "us", false, 0},
	{"plan.plan_us_per_op", "us", false, 0},
	{"wire.codec_us_per_op", "us", false, 0},
	{"wire.bytes_per_op", "B", false, 0},
	{"server.overhead_us_per_op", "us", false, 0},
	{"storage.insert_us", "us", false, 0},
	{"storage.lookup_us", "us", false, 0},
	{"storage.cow_copy_us", "us", false, 0},
	{"core.publishes_per_write", "count", false, 0},
	{"core.versions_live_max", "count", false, 0},
	{"core.checkpoints", "count", false, 0},
	{"core.checkpoint_ms", "ms", false, 0},
	{"core.checkpoint_stall_ms", "ms", false, 0},
	{"core.copy_rows_per_s", "1/s", true, 0},
	{"core.recovery_s", "s", false, 0},
	{"core.replay_stmts_per_s", "1/s", true, 0},
	{"wal.append_us_per_write", "us", false, 0},
	{"wal.bytes_per_user_byte", "ratio", false, 0},
	{"wal.fsyncs_per_write", "count", false, 0},
	{"device.writes_per_op", "count", false, 0},
	{"device.bytes_per_user_byte", "ratio", false, 0},
	{"device.syncs_per_op", "count", false, 0},
	{"device.sync_ms_p50", "ms", false, 0},
	{"share.wire", "ratio", false, 0},
	{"share.server", "ratio", false, 0},
	{"share.sql", "ratio", false, 0},
	{"share.plan", "ratio", false, 0},
	{"share.exec", "ratio", false, 0},
	{"share.graph", "ratio", false, 0},
	{"share.catalog", "ratio", false, 0},
	{"share.storage", "ratio", false, 0},
	{"share.core", "ratio", false, 0},
	{"share.wal", "ratio", false, 0},
	{"share.faultfs", "ratio", false, 0},
	{"trace.overhead_ratio", "ratio", false, 0},
	{"trace.ops", "count", true, 0},
}

// runTraced is the -trace run. It follows a prefix of the workload's stream
// with one client, recording spans for the wire round trip on engine A and
// for the replay of each op at every depth on twin engine B; then it runs
// the ordinary load window on A and reads the program's own counters and
// the recording filesystem around it. End-to-end metrics are never taken
// from this run.
func runTraced(w workload, rep *report, outDir string) error {
	t0 := time.Now()
	sysA, err := w.setup()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	defer sysA.close()
	v := map[string]float64{}
	if sysA.copyNS > 0 {
		v["core.copy_rows_per_s"] = float64(sysA.copied) / sysA.copyNS.Seconds()
	}

	// Phase 1: traced prefix, then the untraced control segment.
	tr := newTracer()
	ops, failed, err := tracePhase(w, sysA, tr, v, time.Duration(rep.Seconds)*time.Second, outDir)
	if err != nil {
		return err
	}
	spanFile := filepath.Join(outDir, "trace_"+w.name()+".json")
	if err := tr.write(spanFile); err != nil {
		return err
	}
	fromSpans(tr.spans, ops, v)

	// Phase 2: the ordinary load window, for the counters. A watcher takes
	// the counters' baseline when the warm-up ends, so the deltas cover the
	// same interval as the samples, and follows the live-version gauge.
	timed := time.Duration(rep.Seconds) * time.Second
	win := newWindow(warmUp, timed)
	var before map[string]int64
	var devBefore deviceCounts
	var versionsMax int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				m := metricsOf(sysA.eng)
				if before == nil && !now.Before(win.start) {
					before = m
					if sysA.rfs != nil {
						devBefore = sysA.rfs.counts()
					}
				}
				if n := m["mvcc.versions_live"]; n > versionsMax {
					versionsMax = n
				}
			}
		}
	}()
	logs := w.drive(sysA, win)
	close(stop)
	<-done
	after := metricsOf(sysA.eng)
	s := summarize(w.kinds(), logs, timed)
	fromCounters(before, after, s, v)
	v["core.versions_live_max"] = float64(versionsMax)
	var devAfter deviceCounts
	if sysA.rfs != nil {
		devAfter = sysA.rfs.counts()
		fromDevice(devBefore, devAfter, w, logs, win, v)
	}
	vAttempted, vFailed := w.verify(sysA)
	if x, ok := w.(interface{ extra() map[string]float64 }); ok {
		e := x.extra()
		v["core.recovery_s"] = e["recovery_s"]
		if e["recovery_s"] > 0 {
			v["core.replay_stmts_per_s"] = e["recovery_replayed"] / e["recovery_s"]
		}
		if u := e["user_bytes_written"]; u > 0 {
			// User bytes, log bytes and device bytes are all counted from
			// the engine's first byte, so these are ratios over the run.
			v["wal.bytes_per_user_byte"] = float64(after["wal.bytes"]) / u
			v["device.bytes_per_user_byte"] = float64(devAfter.bytes) / u
		}
	}

	rep.Info["setup_s"] = setupS
	rep.Info["window.ops_per_s"] = s.opsPerS
	rep.Result = result{Correct: failed+s.failed+vFailed == 0, Attempted: ops + controlOps + s.attempted + vAttempted,
		Failed: failed + s.failed + vFailed, Metrics: map[string]metricValue{}}
	fmt.Printf("\nper-layer metrics (traced run: %d-op prefix with one client, then the load window; spans in %s):\n", ops, spanFile)
	for _, m := range perLayer {
		rep.Result.Metrics[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
		fmt.Printf("  %-38s %14.4f %s\n", m.name, v[m.name], m.unit)
	}
	fmt.Println("\nself time by layer, share of the wire round trip (root span):")
	for _, l := range layers {
		fmt.Printf("  %-8s %5.1f%%\n", l, 100*v["share."+l])
	}
	fmt.Printf("fail_ratio %d/%d\n", rep.Result.Failed, rep.Result.Attempted)
	return nil
}

// tracePhase sets up the twin, follows the prefix and the control segment,
// and measures the direct clone and CSR build of the view's topology.
func tracePhase(w workload, sysA *system, tr *tracer, v map[string]float64, budget time.Duration, outDir string) (ops, failed int, err error) {
	sysB, err := w.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("twin set-up: %w", err)
	}
	defer sysB.close()
	scratch, err := w.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("scratch set-up: %w", err)
	}
	defer scratch.close()
	tw, err := newTwin(tr, sysB, scratch, w.templates(), outDir)
	if err != nil {
		return 0, 0, err
	}
	defer tw.close()

	next, c := w.traceStream(), sysA.conns[0]
	deadline := time.Now().Add(budget)
	var traced []int64
	for ops < tracePrefix && time.Now().Before(deadline) {
		ops++
		roundTrip, ok := tw.traceOp(c, next(), ops)
		if !ok {
			failed++
		}
		traced = append(traced, roundTrip)
	}
	if tw.returned > 0 {
		v["exec.rows_examined_per_row_returned"] = float64(tw.examined) / float64(tw.returned)
	}
	if tw.view != nil {
		g, err := tw.eng.GraphTopology(viewName)
		if err != nil {
			return ops, failed, err
		}
		var clone, build []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			cold := g.Clone() // its order caches are empty, as after a write
			clone = append(clone, float64(time.Since(t0))*msPerNS)
			t0 = time.Now()
			graph.BuildCSR(cold)
			build = append(build, float64(time.Since(t0))*msPerNS)
		}
		v["graph.clone_ms"], v["graph.csr_build_ms"] = medianF(clone), medianF(build)
	}

	// Control: the same stream, same connection, no spans and no twin.
	var control []int64
	for i := 0; i < controlOps; i++ {
		o := next()
		t0 := time.Now()
		ok := c.do(o)
		control = append(control, int64(time.Since(t0)))
		if !ok {
			failed++
		}
	}
	sort.Slice(traced, func(i, j int) bool { return traced[i] < traced[j] })
	sort.Slice(control, func(i, j int) bool { return control[i] < control[j] })
	if p := percentile(control, 0.5); p > 0 {
		v["trace.overhead_ratio"] = float64(percentile(traced, 0.5)) / float64(p)
	}
	v["trace.ops"] = float64(ops)
	return ops, failed, nil
}

// fromSpans reduces the span file to the per-op layer metrics and shares.
func fromSpans(spans []span, ops int, v map[string]float64) {
	self := selfTimes(spans)
	const usPerNS = 1e-3
	var kernel, edges, execSelf, parse, planNS, codec, bytes, rootSelf float64
	type mean struct{ sum, n float64 }
	var insert, lookup, cow, appendWAL mean
	for i, s := range spans {
		d := float64(s.dur())
		switch {
		case s.Name == "op":
			rootSelf += float64(self[i])
		case s.Name == "wire.codec":
			codec += d
			bytes += float64(s.Counts["bytes"])
		case s.Name == "sql.Parse":
			parse += d
		case s.Name == "plan.PlanSelect":
			planNS += d
		case s.Name == "exec.run":
			execSelf += float64(self[i])
		case s.Name == "storage.Table.Insert":
			insert.sum, insert.n = insert.sum+d, insert.n+1
		case s.Name == "storage.Table.LookupPK" || s.Name == "storage.Index.Lookup":
			lookup.sum, lookup.n = lookup.sum+d, lookup.n+1
		case s.Name == "storage.Table.Update":
			cow.sum, cow.n = cow.sum+float64(s.Counts["cow_ns"]), cow.n+1
		case s.Name == "wal.Append":
			appendWAL.sum, appendWAL.n = appendWAL.sum+d, appendWAL.n+1
		case strings.HasPrefix(s.Name, "graph.") && s.Name != "graph.Clone" && s.Name != "graph.BuildCSR":
			kernel += d
			edges += float64(s.Counts["edges"])
		}
	}
	n := float64(ops)
	if n == 0 {
		return
	}
	v["graph.kernel_us_per_op"] = kernel / n * usPerNS
	v["graph.edges_traversed_per_op"] = edges / n
	v["exec.self_us_per_op"] = execSelf / n * usPerNS
	v["sql.parse_us_per_op"] = parse / n * usPerNS
	v["plan.plan_us_per_op"] = planNS / n * usPerNS
	v["wire.codec_us_per_op"] = codec / n * usPerNS
	v["wire.bytes_per_op"] = bytes / n
	v["server.overhead_us_per_op"] = rootSelf / n * usPerNS
	avg := func(m mean) float64 {
		if m.n == 0 {
			return 0
		}
		return m.sum / m.n * usPerNS
	}
	v["storage.insert_us"], v["storage.lookup_us"] = avg(insert), avg(lookup)
	v["storage.cow_copy_us"], v["wal.append_us_per_write"] = avg(cow), avg(appendWAL)
	share := layerShares(spans)
	for _, l := range layers {
		v["share."+l] = share[l]
	}
}

// fromCounters reads the program's own counters over the load window.
func fromCounters(before, after map[string]int64, s summary, v map[string]float64) {
	d := func(name string) float64 { return float64(after[name] - before[name]) }
	view := "graphview." + viewName + "."
	if lookups := d(view+"csr_hits") + d(view+"csr_misses"); lookups > 0 {
		v["graph.csr_hit_ratio"] = d(view+"csr_hits") / lookups
	}
	// A paced load is two statements: the COPY and the purge.
	if writes := s.info["write_samples"] + 2*s.info["batch_samples"]; writes > 0 {
		v["core.publishes_per_write"] = d("mvcc.published") / writes
		v["wal.fsyncs_per_write"] = d("wal.fsyncs") / writes
	}
	v["core.checkpoints"] = d("wal.checkpoints")
}

// fromDevice reads the recording filesystem around the load window.
func fromDevice(before, after deviceCounts, w workload, logs []*clientLog, win window, v map[string]float64) {
	var ops float64
	for _, l := range logs {
		for _, sm := range l.samples {
			switch w.kinds()[sm.kind].family {
			case write:
				ops++
			case batch:
				ops += 2 // the COPY and the purge
			}
		}
	}
	if ops > 0 {
		v["device.writes_per_op"] = float64(after.writes-before.writes) / ops
		v["device.syncs_per_op"] = float64(after.syncs-before.syncs) / ops
	}
	v["device.sync_ms_p50"] = float64(percentile(after.syncNS, 0.5)) * msPerNS

	// Checkpoints: the wrapper sees each one end as a rename onto the
	// checkpoint file, and knows when that file's temp was created.
	var took []float64
	var stall int64
	for _, ev := range after.renames[len(before.renames):] {
		if !strings.HasSuffix(ev.to, "checkpoint.gob") {
			continue
		}
		took = append(took, float64(ev.took)*msPerNS)
		from, to := int64(ev.at.Add(-ev.took).Sub(win.start)), int64(ev.at.Sub(win.start))
		for _, sm := range logs[0].samples { // client A
			if sm.at < to && sm.at+sm.lat > from && sm.lat > stall {
				stall = sm.lat
			}
		}
	}
	if len(took) > 0 {
		sum := 0.0
		for _, x := range took {
			sum += x
		}
		v["core.checkpoint_ms"] = sum / float64(len(took))
	}
	v["core.checkpoint_stall_ms"] = float64(stall) * msPerNS
}
