package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"grfusion/internal/faultfs"
	"grfusion/internal/wal"
)

// weather is what the disk does during one stretch of the durability soak.
type weather int

const (
	calm     weather = iota
	drizzle          // transient EIO and torn writes: statements abort, the engine stays healthy
	outage           // a broken log or a full disk: the engine degrades, then heals itself
	powerCut         // the power goes at a random op: the cycle ends in a kill
	numWeathers
)

var weatherNames = [numWeathers]string{"calm", "drizzle", "outage", "power cut"}

// TestDurabilitySoak is the durability soak: one durable engine over one
// faultfs.Faulty runs a seeded random graph DML workload, interleaved with
// explicit checkpoints and mid-flight SET WAL_FSYNC, in cycles. Each stretch
// of a cycle draws one kind of weather:
//
//   - calm;
//   - EIO drizzle (writes, syncs, opens and renames fail now and then, some
//     writes torn): statements abort, the engine never degrades;
//   - outage (a broken log, or a full disk): writes fail with ErrDegraded,
//     reads equal the acknowledged history, and the engine heals itself and
//     takes writes again;
//   - power cut at a random op of the durability path: the cycle ends there.
//
// A cycle ends in a graceful shutdown or a kill (always a kill after a
// cut), the kill sometimes leaving garbage as a torn tail. Recovery runs
// with a freshly drawn fsync policy and CHECKPOINT_EVERY and must equal —
// tuple-pointer-exact, live topology equal to a from-scratch §3.3 rebuild —
// a non-durable reference engine fed every acknowledged statement, with a
// healthy engine and no replay error. A graceful shutdown replays nothing.
//
// A cut leaves the one statement in flight in doubt: recovery may hold it
// or not, and when it does the reference applies it too. The log only ever
// holds statements that applied, so no cut leaves a record that fails on
// replay: Open would refuse it.
//
// GRF_SOAK sets the duration in seconds (the CI recovery lane runs 30);
// the default keeps `go test ./...` fast.
func TestDurabilitySoak(t *testing.T) {
	durabilitySoak(t, calm, drizzle, outage, powerCut)
}

// TestRecoverySoak is the durability soak's crash half: calm stretches and
// power cuts only, so every cycle exercises fsync retuning, a graceful
// shutdown that replays nothing or a kill, and tuple-pointer-exact recovery.
func TestRecoverySoak(t *testing.T) {
	durabilitySoak(t, calm, powerCut)
}

// TestDiskFaultSoak is the durability soak's disk-fault half: EIO drizzle
// and outages only, with readers racing every degradation and heal, each
// cycle ending in a shutdown or a kill and a recovery.
func TestDiskFaultSoak(t *testing.T) {
	durabilitySoak(t, drizzle, outage)
}

// durabilitySoak runs the soak described at TestDurabilitySoak, drawing
// each stretch's weather from weathers.
func durabilitySoak(t *testing.T, weathers ...weather) {
	duration := 2 * time.Second
	if s := os.Getenv("GRF_SOAK"); s != "" {
		var secs int
		if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
			duration = time.Duration(secs) * time.Second
		}
	}
	const seed = 20260809
	rng := rand.New(rand.NewSource(seed))
	ffs := faultfs.NewFaulty(nil, seed+1)
	dir := t.TempDir()

	// The ground truth: a plain in-memory engine fed every statement the
	// durable engine acknowledged.
	ref := New(Options{})
	defer ref.Close()
	mustExecAll(t, ref, durSetup)

	policies := []wal.FsyncPolicy{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncOff}
	open := func() (*Engine, *RecoveryInfo) {
		t.Helper()
		ffs.Calm()
		ffs.SetFree(-1)
		e, info, err := Open(Options{Durability: Durability{
			Dir:             dir,
			FS:              ffs,
			Fsync:           policies[rng.Intn(len(policies))],
			FsyncInterval:   time.Millisecond, // tick often enough to matter in a short soak
			CheckpointEvery: []int{-1, 0, 3, 8}[rng.Intn(4)],
			HealBase:        time.Millisecond,
			HealMax:         8 * time.Millisecond,
		}})
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
	freshInsert := func() string {
		id := nextID
		nextID++
		people = append(people, id)
		return fmt.Sprintf("INSERT INTO people VALUES (%d, 'p%d')", id, id)
	}
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
		case k == 9 && len(people) > 0: // duplicate key: fails to apply, nothing is logged
			return fmt.Sprintf("INSERT INTO people VALUES (%d, 'dup')", people[rng.Intn(len(people))])
		default:
			return freshInsert()
		}
	}

	var stmts, acked int
	// exec runs q on the durable engine and, once acknowledged, on the
	// reference. A statement that aborted (an injected fault, ErrDegraded,
	// or its own error) applied nothing and left nothing in the log.
	exec := func(q string) error {
		t.Helper()
		stmts++
		if _, err := eng.Execute(q); err != nil {
			return err
		}
		acked++
		if _, err := ref.Execute(q); err != nil {
			t.Fatalf("durable engine accepted %q but reference rejected it: %v", q, err)
		}
		return nil
	}
	// step runs one random action: mostly a statement, sometimes an
	// explicit checkpoint or a mid-flight fsync retune. It returns the
	// statement and its error; q is "" for the other two, which log nothing.
	step := func() (q string, err error) {
		switch rng.Intn(10) {
		case 0:
			// May fail under faults or be cut; every window must recover.
			_ = eng.Checkpoint()
			return "", nil
		case 1:
			pol := policies[rng.Intn(len(policies))]
			// Tightening to ALWAYS syncs, so it may hit an injected fault;
			// anything else is a bug.
			var inj *faultfs.InjectedError
			if _, err := eng.Execute("SET WAL_FSYNC = " + strings.ToUpper(pol.String())); err != nil && !errors.As(err, &inj) {
				t.Fatalf("SET WAL_FSYNC = %s: %v", pol, err)
			}
			return "", nil
		}
		q = mutate()
		return q, exec(q)
	}
	// powerOut reports whether the cut has landed: a dead disk refuses even
	// a directory sync, which Faulty does not count, so probing moves no op.
	powerOut := func() bool { return ffs.SyncDir(dir) != nil }

	// startReaders runs a query loop and a health poller against e, racing
	// writes, degradations, heals and cuts, until the returned stop.
	startReaders := func(e *Engine) (stop func()) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		loop := func(body func()) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body()
			}
		}
		wg.Add(2)
		go loop(func() {
			e.Execute("SELECT COUNT(*) FROM people")
			e.Execute("SELECT src, dst FROM knows WHERE w > 3")
		})
		go loop(func() {
			e.Health()
			e.Execute("SHOW HEALTH")
		})
		return func() { close(done); wg.Wait() }
	}

	var (
		seen                                 [numWeathers]int
		cycles, graceful, kills, torn, heals int
		cuts, doubtKept, doubtDropped        int
	)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		stopReaders := startReaders(eng)
		cut, doubt := false, ""
		for s, ns := 0, 1+rng.Intn(3); s < ns && !cut; s++ {
			w := weathers[rng.Intn(len(weathers))]
			seen[w]++
			switch w {
			case calm:
				for i, n := 0, 3+rng.Intn(12); i < n; i++ {
					step()
				}
			case drizzle:
				ffs.SetRate(faultfs.OpWrite, 0.2*rng.Float64())
				ffs.SetRate(faultfs.OpSync, 0.2*rng.Float64())
				ffs.SetRate(faultfs.OpOpen, 0.3*rng.Float64())
				ffs.SetRate(faultfs.OpRename, 0.3*rng.Float64())
				ffs.SetShortRate(0.5)
				for i, n := 0, 3+rng.Intn(12); i < n; i++ {
					step()
				}
				ffs.Calm()
				if h := eng.Health(); h.State != StateHealthy {
					t.Fatalf("cycle %d: an EIO drizzle degraded the engine: %s", cycles, h.Reason)
				}
			case outage:
				if rng.Intn(2) == 0 {
					ffs.SetRate(faultfs.OpWrite, 1)    // break the log: every write fails...
					ffs.SetRate(faultfs.OpTruncate, 1) // ...and no truncate can clean up
				} else {
					ffs.SetFree(int64(rng.Intn(64))) // the disk fills up
				}
				degraded := false
				for i := 0; i < 50 && !degraded; i++ {
					// A small frame may still fit a nearly full disk.
					degraded = errors.Is(exec(mutate()), ErrDegraded)
				}
				if !degraded {
					t.Fatalf("cycle %d: the outage did not degrade the engine within 50 statements", cycles)
				}
				if err := exec(mutate()); !errors.Is(err, ErrDegraded) {
					t.Fatalf("cycle %d: degraded write: err = %v, want ErrDegraded", cycles, err)
				}
				if ds, rs := stateSig(t, eng), stateSig(t, ref); ds != rs {
					t.Fatalf("cycle %d: degraded reads diverged from the acknowledged history\nengine:\n%s\nreference:\n%s", cycles, ds, rs)
				}
				ffs.Calm()
				ffs.SetFree(-1)
				waitState(t, eng, StateHealthy, 10*time.Second)
				heals++
				if err := exec(freshInsert()); err != nil {
					t.Fatalf("cycle %d: write after heal: %v", cycles, err)
				}
			case powerCut:
				ffs.ArmCrash(1 + rng.Int63n(40))
				for i := 0; !powerOut(); i++ {
					if i == 1000 {
						t.Fatalf("cycle %d: the power cut never landed", cycles)
					}
					if q, err := step(); q != "" && err != nil && powerOut() {
						doubt = q
					}
				}
				cut = true
				cuts++
			}
		}
		stopReaders()

		shutdown := !cut && rng.Intn(4) == 0
		if shutdown {
			graceful++
			if err := eng.Shutdown(); err != nil {
				t.Fatalf("cycle %d: shutdown: %v", cycles, err)
			}
		} else {
			kills++
			eng.Kill()
			if rng.Intn(3) == 0 { // torn-tail artifact of dying mid-append
				torn++
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
		if shutdown && info.Replayed != 0 {
			t.Fatalf("cycle %d: post-shutdown recovery replayed %d records, want 0 (%s)", cycles, info.Replayed, info)
		}
		ds, rs := stateSig(t, eng), stateSig(t, ref)
		if doubt != "" {
			if ds != rs {
				// Recovery holds the statement in flight at the cut.
				ref.Execute(doubt)
				rs = stateSig(t, ref)
				doubtKept++
			} else {
				doubtDropped++
			}
		}
		if ds != rs {
			t.Fatalf("cycle %d: recovered state diverged from reference (in doubt: %q)\nrecovered:\n%s\nreference:\n%s",
				cycles, doubt, ds, rs)
		}
		if h := eng.Health(); h.State != StateHealthy {
			t.Fatalf("cycle %d: recovered engine health = %v, want healthy", cycles, h.State)
		}
		cycles++
	}
	eng.Close()

	t.Logf("durability soak, %s: %d cycles, %d statements (%d acked); weather %s %d, %s %d, %s %d, %s %d; "+
		"%d heals; endings %d graceful, %d kills (%d torn tails); %d cuts: in-doubt statement kept %d, dropped %d",
		duration, cycles, stmts, acked,
		weatherNames[calm], seen[calm], weatherNames[drizzle], seen[drizzle],
		weatherNames[outage], seen[outage], weatherNames[powerCut], seen[powerCut],
		heals, graceful, kills, torn, cuts, doubtKept, doubtDropped)
	if os.Getenv("GRF_SOAK") != "" {
		for _, w := range weathers {
			if n := seen[w]; n < 5 {
				t.Errorf("%s weather drawn %d times, want >= 5", weatherNames[w], n)
			}
		}
		if graceful < 5 || kills < 5 {
			t.Errorf("cycle endings: %d graceful, %d kills; want >= 5 of each", graceful, kills)
		}
	}
}
