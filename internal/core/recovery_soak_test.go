package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grfusion/internal/wal"
)

// chaosInjector drives the durability fault hooks. It is shared between
// the workload goroutine and the WAL's interval-sync goroutine, so every
// decision is taken under its own lock with its own rng.
type chaosInjector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rate  map[string]float64 // WAL op ("write", "sync", "rotate") -> failure probability
	crash wal.CrashPoint     // one-shot checkpoint crash, "" when disarmed
}

func (c *chaosInjector) fault(op string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() < c.rate[op] {
		return fmt.Errorf("chaos: injected %s fault", op)
	}
	return nil
}

func (c *chaosInjector) crashFn(p wal.CrashPoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crash != "" && p == c.crash {
		c.crash = ""
		return fmt.Errorf("chaos: injected crash at %s", p)
	}
	return nil
}

func (c *chaosInjector) set(write, sync, rotate float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rate = map[string]float64{"write": write, "sync": sync, "rotate": rotate}
}

func (c *chaosInjector) armCrash(p wal.CrashPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crash = p
}

// calm disarms all injection (recovery itself must run fault-free: the
// soak simulates crashes, not a broken disk at restart).
func (c *chaosInjector) calm() {
	c.set(0, 0, 0)
	c.armCrash("")
}

// TestRecoverySoak is the kill-and-recover chaos soak: one durable engine
// runs a seeded random DML workload under stormy weather — injected WAL
// write/sync/rotate failures, checkpoint crashes at every point of the
// atomic-rename protocol, fsync policy changes mid-flight — and is
// repeatedly killed (fd dropped, no sync, no checkpoint, sometimes with
// garbage appended as a torn tail) or gracefully shut down, then
// recovered. After every recovery the engine must match a non-durable
// reference engine that applied the same accepted statements, the live
// topology must equal a from-scratch §3.3 rebuild, and no replayed record
// may fail.
//
// GRF_SOAK extends the soak duration (seconds), e.g. GRF_SOAK=20 in the
// CI recovery job; the default keeps `go test ./...` fast.
func TestRecoverySoak(t *testing.T) {
	duration := 1500 * time.Millisecond
	if s := os.Getenv("GRF_SOAK"); s != "" {
		var secs int
		if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
			duration = time.Duration(secs) * time.Second
		}
	}
	const seed = 20260809
	rng := rand.New(rand.NewSource(seed))
	inj := &chaosInjector{rng: rand.New(rand.NewSource(seed + 1)), rate: map[string]float64{}}
	dir := t.TempDir()

	// The ground truth: a plain in-memory engine fed every statement the
	// durable engine accepted.
	ref := New(Options{})
	mustExecAll(t, ref, durSetup)

	policies := []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncOff}
	open := func() (*Engine, *RecoveryInfo) {
		t.Helper()
		inj.calm()
		var opts Options
		opts.Durability = Durability{
			Dir:             dir,
			Fsync:           policies[rng.Intn(len(policies))],
			FsyncInterval:   time.Millisecond, // tick often enough to matter in a short soak
			CheckpointEvery: []int{-1, 0, 3, 8}[rng.Intn(4)],
			FaultHook:       inj.fault,
			CrashHook:       inj.crashFn,
		}
		e, info, err := Open(opts)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return e, info
	}
	eng, _ := open()
	mustExecAll(t, eng, durSetup)

	// Workload bookkeeping for statement generation only; correctness
	// comes from the reference engine, so stale ids merely produce
	// statements that fail identically on both sides.
	var people, edges []int
	nextID := 1
	mutate := func() string {
		k := rng.Intn(10)
		switch {
		case k < 6 && k >= 3 && len(people) >= 2: // edge insert
			id := nextID
			nextID++
			edges = append(edges, id)
			src, dst := people[rng.Intn(len(people))], people[rng.Intn(len(people))]
			return fmt.Sprintf("INSERT INTO knows VALUES (%d, %d, %d, %d)", id, src, dst, rng.Intn(100))
		case k == 6 && len(edges) > 0: // edge delete
			i := rng.Intn(len(edges))
			id := edges[i]
			edges = append(edges[:i], edges[i+1:]...)
			return fmt.Sprintf("DELETE FROM knows WHERE id = %d", id)
		case k == 7 && len(people) > 0: // vertex delete
			i := rng.Intn(len(people))
			id := people[i]
			people = append(people[:i], people[i+1:]...)
			return fmt.Sprintf("DELETE FROM people WHERE id = %d", id)
		case k == 8 && len(people) > 0: // vertex update
			return fmt.Sprintf("UPDATE people SET name = 'r%d' WHERE id = %d",
				rng.Intn(1000), people[rng.Intn(len(people))])
		case k == 9 && len(people) > 0: // duplicate key: must abort without a WAL trace
			return fmt.Sprintf("INSERT INTO people VALUES (%d, 'dup')", people[rng.Intn(len(people))])
		default: // vertex insert
			id := nextID
			nextID++
			people = append(people, id)
			return fmt.Sprintf("INSERT INTO people VALUES (%d, 'p%d')", id, id)
		}
	}
	apply := func(q string) {
		t.Helper()
		if _, err := eng.Execute(q); err != nil {
			// Aborted on the durable engine (injected fault or a legitimate
			// statement error): nothing applied, nothing left in the log, so
			// the reference skips it too.
			return
		}
		if _, err := ref.Execute(q); err != nil {
			t.Fatalf("durable engine accepted %q but reference rejected it: %v", q, err)
		}
	}

	crashPoints := []wal.CrashPoint{wal.CrashAfterTemp, wal.CrashAfterSync, wal.CrashAfterRename}
	deadline := time.Now().Add(duration)
	cycles, stmts := 0, 0
	for time.Now().Before(deadline) {
		for b, nb := 0, 1+rng.Intn(3); b < nb; b++ {
			if rng.Intn(4) == 0 { // stormy stretch
				inj.set(0.2*rng.Float64(), 0.2*rng.Float64(), 0.5*rng.Float64())
			} else {
				inj.set(0, 0, 0)
			}
			for i, n := 0, 3+rng.Intn(12); i < n; i++ {
				apply(mutate())
				stmts++
			}
			if rng.Intn(5) == 0 { // retune durability mid-flight
				pol := policies[rng.Intn(len(policies))]
				// Like any statement, the SET may abort on an injected sync
				// fault while the stretch is stormy; anything else is a bug.
				if _, err := eng.Execute("SET WAL_FSYNC = " + strings.ToUpper(pol.String())); err != nil &&
					!strings.Contains(err.Error(), "chaos: injected") {
					t.Fatalf("SET WAL_FSYNC = %s: %v", pol, err)
				}
			}
			if rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 { // die inside the checkpoint protocol
					inj.armCrash(crashPoints[rng.Intn(len(crashPoints))])
				}
				// May fail under faults or the armed crash; every crash
				// window must still recover, which the reopen below checks.
				_ = eng.Checkpoint()
			}
		}

		inj.calm()
		graceful := rng.Intn(4) == 0
		if graceful {
			if err := eng.Shutdown(); err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		} else {
			eng.Kill()
			if rng.Intn(3) == 0 { // torn-tail artifact of dying mid-append
				garbage := make([]byte, 1+rng.Intn(40))
				rng.Read(garbage)
				if f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0o644); err == nil {
					f.Write(garbage)
					f.Close()
				}
			}
		}

		var info *RecoveryInfo
		eng, info = open()
		if info.ReplayErrors != 0 {
			t.Fatalf("cycle %d: recovery replayed %d records with %d errors (%s)",
				cycles, info.Replayed, info.ReplayErrors, info)
		}
		if graceful && info.Replayed != 0 {
			t.Fatalf("cycle %d: post-shutdown recovery replayed %d records, want 0 (%s)",
				cycles, info.Replayed, info)
		}
		if ds, rs := stateSig(t, eng), stateSig(t, ref); ds != rs {
			t.Fatalf("cycle %d: recovered state diverged from reference\nrecovered:\n%s\nreference:\n%s",
				cycles, ds, rs)
		}
		cycles++
	}
	eng.Close()
	t.Logf("soak: %d statements, %d recover cycles in %s", stmts, cycles, duration)
}
