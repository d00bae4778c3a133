package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"grfusion/internal/faultfs"
	"grfusion/internal/wal"
)

// waitState polls until the engine's health reaches want (the healer runs
// in the background, so transitions are asynchronous).
func waitState(t *testing.T, e *Engine, want HealthState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.Health().State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	h := e.Health()
	t.Fatalf("engine did not reach %v within %v (state %v, reason %q, last heal error %q)",
		want, timeout, h.State, h.Reason, h.LastHealError)
}

func metricsMap(e *Engine) map[string]int64 {
	out := make(map[string]int64)
	for _, kv := range e.MetricsSnapshot() {
		out[kv.Name] = kv.Value
	}
	return out
}

func healthRows(t *testing.T, e *Engine) map[string]string {
	t.Helper()
	res, err := e.Execute("SHOW HEALTH")
	if err != nil {
		t.Fatalf("SHOW HEALTH: %v", err)
	}
	out := make(map[string]string, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].S] = r[1].S
	}
	return out
}

func TestHealthNonDurable(t *testing.T) {
	e := New(Options{})
	defer e.Close()
	h := e.Health()
	if h.State != StateHealthy || h.Durable || !h.Ready() {
		t.Fatalf("non-durable engine health = %+v, want healthy/non-durable/ready", h)
	}
	rows := healthRows(t, e)
	if rows["state"] != "healthy" || rows["durable"] != "false" || rows["ready"] != "true" {
		t.Fatalf("SHOW HEALTH on non-durable engine = %v", rows)
	}
}

// TestDegradedModeAndHeal walks the full degrade → heal cycle: a WAL made
// unusable by injected faults flips the engine to read-only, reads and the
// health surface keep serving, writes fail fast with ErrDegraded without
// touching the disk, and once the faults clear the background healer
// restores read-write with zero lost acknowledged writes (proved by
// kill-and-recover).
func TestDegradedModeAndHeal(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 42)
	dir := t.TempDir()
	var opts Options
	opts.Durability = Durability{
		Dir: dir, Fsync: wal.FsyncAlways, FS: ffs,
		CheckpointEvery: -1,
		HardFreeBytes:   16 << 10,
		HealBase:        time.Millisecond, HealMax: 8 * time.Millisecond,
	}
	eng, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer eng.Close()
	mustExecAll(t, eng, durSetup)
	mustExecAll(t, eng, `
INSERT INTO people VALUES (1, 'ann');
INSERT INTO people VALUES (2, 'bob');
INSERT INTO knows VALUES (1, 1, 2, 5);
`)
	sigBefore := stateSig(t, eng)

	// Break the durability path: every write fails AND the rollback
	// truncation fails, so the log cannot restore a clean tail.
	ffs.SetRate(faultfs.OpWrite, 1)
	ffs.SetRate(faultfs.OpTruncate, 1)
	_, err = eng.Execute("INSERT INTO people VALUES (3, 'carol')")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("write on broken WAL: err = %v, want ErrDegraded", err)
	}
	h := eng.Health()
	if h.State != StateDegraded && h.State != StateHealing {
		t.Fatalf("state after broken WAL = %v, want degraded", h.State)
	}
	if h.Reason == "" || !h.Durable {
		t.Fatalf("degraded health missing detail: %+v", h)
	}

	// Reads, SHOW and EXPLAIN keep serving, and see exactly the
	// pre-degrade state (the failed insert never applied).
	if got := stateSig(t, eng); got != sigBefore {
		t.Fatalf("degraded reads diverged:\n got %s\nwant %s", got, sigBefore)
	}
	if _, err := eng.Execute("EXPLAIN SELECT name FROM people"); err != nil {
		t.Fatalf("EXPLAIN while degraded: %v", err)
	}
	rows := healthRows(t, eng)
	if rows["state"] == "healthy" || rows["ready"] != "false" {
		t.Fatalf("SHOW HEALTH while degraded = %v", rows)
	}

	// Further writes fail fast — before touching the disk at all. The
	// background healer's probes touch it too, so park the healer first:
	// with free space under the hard watermark a probe stops at its
	// disk-space gate, before any file op, and the first rejected write
	// waits (for the writer lock) until a probe already past the gate is
	// done.
	ffs.SetFree(0)
	if _, err := eng.Execute("DELETE FROM people WHERE id = 1"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second degraded write: err = %v, want ErrDegraded", err)
	}
	opsBefore := ffs.Ops()
	if _, err := eng.Execute("DELETE FROM people WHERE id = 2"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("third degraded write: err = %v, want ErrDegraded", err)
	}
	if got := ffs.Ops(); got != opsBefore {
		t.Fatalf("degraded write touched the disk: %d ops, want %d", got, opsBefore)
	}
	ffs.SetFree(-1)
	m := metricsMap(eng)
	if m["durability.degraded"] != 1 {
		t.Fatalf("durability.degraded = %d, want 1", m["durability.degraded"])
	}
	if m["durability.degraded_writes"] < 2 {
		t.Fatalf("durability.degraded_writes = %d, want >= 2", m["durability.degraded_writes"])
	}
	if m["errors.degraded"] < 1 {
		t.Fatalf("errors.degraded = %d, want >= 1", m["errors.degraded"])
	}

	// Clear the weather; the healer checkpoints, rotates in a fresh log,
	// probes an append+fsync round trip, and re-admits writes.
	ffs.Calm()
	waitState(t, eng, StateHealthy, 5*time.Second)
	if _, err := eng.Execute("INSERT INTO people VALUES (3, 'carol')"); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	sigHealed := stateSig(t, eng)
	rows = healthRows(t, eng)
	if rows["state"] != "healthy" || rows["ready"] != "true" || rows["reason"] != "" {
		t.Fatalf("SHOW HEALTH after heal = %v", rows)
	}
	m = metricsMap(eng)
	if m["durability.heals"] < 1 || m["durability.heal_attempts"] < 1 {
		t.Fatalf("heal metrics not recorded: %v", m)
	}
	if m["durability.degraded"] != 0 {
		t.Fatalf("durability.degraded = %d after heal, want 0", m["durability.degraded"])
	}

	// Kill-and-recover: the post-heal write was durably logged, the
	// pre-heal aborted writes were not.
	eng.Kill()
	re, _, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery after heal: %v", err)
	}
	defer re.Close()
	if got := stateSig(t, re); got != sigHealed {
		t.Fatalf("recovered state diverged from acknowledged history:\n got %s\nwant %s", got, sigHealed)
	}
	if h := re.Health(); h.State != StateHealthy {
		t.Fatalf("recovered engine health = %v, want healthy", h.State)
	}
}

// TestDiskFullWatermarks drives the free-space watermarks end to end:
// under the soft watermark an append forces a checkpoint + WAL rotation to
// give space back; under the hard watermark the engine degrades instead of
// consuming the disk's last bytes; heal probes keep failing while space
// stays scarce and succeed as soon as it returns.
func TestDiskFullWatermarks(t *testing.T) {
	ffs := faultfs.NewFaulty(nil, 7)
	ffs.SetFree(1 << 20)
	dir := t.TempDir()
	var opts Options
	opts.Durability = Durability{
		Dir: dir, Fsync: wal.FsyncOff, FS: ffs,
		CheckpointEvery: -1,
		SoftFreeBytes:   256 << 10,
		HardFreeBytes:   16 << 10,
		HealBase:        time.Millisecond, HealMax: 8 * time.Millisecond,
	}
	eng, _, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer eng.Close()
	mustExecAll(t, eng, durSetup)
	mustExecAll(t, eng, `
INSERT INTO people VALUES (1, 'ann');
INSERT INTO people VALUES (2, 'bob');
INSERT INTO knows VALUES (1, 1, 2, 5);
`)

	// Soft watermark: the next append reclaims WAL space first.
	ckpts := metricsMap(eng)["wal.checkpoints"]
	logSize := eng.dur.log.Size()
	ffs.SetFree(100 << 10) // below soft, above hard
	if _, err := eng.Execute("INSERT INTO people VALUES (3, 'carol')"); err != nil {
		t.Fatalf("insert under soft watermark: %v", err)
	}
	if got := metricsMap(eng)["wal.checkpoints"]; got != ckpts+1 {
		t.Fatalf("soft watermark forced %d checkpoints, want %d", got-ckpts, 1)
	}
	if got := eng.dur.log.Size(); got >= logSize {
		t.Fatalf("soft watermark did not shrink the log: %d -> %d bytes", logSize, got)
	}
	if h := eng.Health(); h.State != StateHealthy {
		t.Fatalf("soft watermark degraded the engine: %v", h.State)
	}

	// Hard watermark: writes are refused outright.
	ffs.SetFree(8 << 10)
	_, err = eng.Execute("INSERT INTO people VALUES (4, 'dave')")
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("insert under hard watermark: err = %v, want ErrDegraded", err)
	}
	if h := eng.Health(); h.Reason == "" || !strings.Contains(h.Reason, "watermark") {
		t.Fatalf("degrade reason = %q, want a watermark explanation", h.Reason)
	}

	// Heal probes run but fail while space stays scarce.
	deadline := time.Now().Add(2 * time.Second)
	for metricsMap(eng)["durability.heal_attempts"] < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := metricsMap(eng)["durability.heal_attempts"]; got < 2 {
		t.Fatalf("heal attempts = %d, want >= 2 while disk stays full", got)
	}
	if got := eng.Health().State; got == StateHealthy {
		t.Fatal("engine healed while free space was still under the hard watermark")
	}

	// Space returns; the engine heals and writes flow again.
	ffs.SetFree(4 << 20)
	waitState(t, eng, StateHealthy, 5*time.Second)
	if _, err := eng.Execute("INSERT INTO people VALUES (4, 'dave')"); err != nil {
		t.Fatalf("insert after heal: %v", err)
	}
	sig := stateSig(t, eng)

	eng.Kill()
	re, _, err := Open(opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := stateSig(t, re); got != sig {
		t.Fatalf("recovered state diverged:\n got %s\nwant %s", got, sig)
	}
}
