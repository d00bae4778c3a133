package oracle

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"grfusion/internal/core"
	"grfusion/internal/datagen"
	"grfusion/internal/wal"
)

// Crash-recovery differential: every round runs its scenario on a DURABLE
// engine in a throwaway WAL directory. After the initial bulk load and
// after every DML batch the engine is killed — the WAL file descriptor is
// dropped with no sync and no checkpoint, exactly what a crashed process
// leaves behind — and reopened with full recovery (checkpoint restore +
// WAL replay + graph-view rebuild). The state checks then run against the
// RECOVERED engine: the §3.3 maintenance oracle (live topology == rebuild
// == ground-truth model), relational row counts, and the tuple-pointer
// facet projections. The workload continues on the recovered engine, so
// recovery round-trips compose within a round and each replay runs on top
// of the previous recovery's output.
//
// Durability knobs (fsync policy, automatic checkpoint cadence, explicit
// mid-round checkpoints) derive deterministically from the round seed, so
// every failure replays — and ddmin-minimizes — under the exact cadence
// that produced it.

// durOpts is one round's durability configuration.
type durOpts struct {
	fsync wal.FsyncPolicy
	every int  // automatic checkpoint threshold (-1 = never)
	ckpt  bool // explicit checkpoint right before each kill
}

func (o durOpts) String() string {
	return fmt.Sprintf("fsync=%s checkpoint_every=%d explicit_ckpt=%v", o.fsync, o.every, o.ckpt)
}

// durOptsFor derives a round's durability knobs from its seed. The rng
// stream is independent of scenario generation and of the workload, so
// adding recovery coverage cannot shift any existing seed's scenario.
func durOptsFor(roundSeed int64) durOpts {
	rng := rand.New(rand.NewSource(roundSeed ^ 0x44C0FFEE))
	var o durOpts
	switch rng.Intn(4) {
	case 0:
		o.fsync = wal.FsyncAlways
	case 1:
		o.fsync = wal.FsyncInterval
	default:
		o.fsync = wal.FsyncOff // in-process kills keep unsynced writes, like a process crash
	}
	switch rng.Intn(3) {
	case 0:
		o.every = -1 // recovery replays the whole history
	case 1:
		o.every = 2 + rng.Intn(6) // checkpoints interleave with the workload
	default:
		o.every = 0 // engine default: one long tail
	}
	o.ckpt = rng.Intn(4) == 0
	return o
}

func (sc *scenario) openDurable(dir string, o durOpts) (*core.Engine, error) {
	opts := core.Options{Workers: sc.workers}
	opts.Durability = core.Durability{Dir: dir, Fsync: o.fsync, CheckpointEvery: o.every}
	eng, _, err := core.Open(opts)
	return eng, err
}

// newDurableEngine opens a fresh durable engine in dir and loads the
// scenario schema and initial graph.
func (sc *scenario) newDurableEngine(dir string, o durOpts) (*core.Engine, error) {
	eng, err := sc.openDurable(dir, o)
	if err != nil {
		return nil, err
	}
	for _, q := range sc.setupSQL() {
		if _, err := eng.Execute(q); err != nil {
			eng.Close()
			return nil, fmt.Errorf("setup %q: %v", firstLine(q), err)
		}
	}
	return eng, nil
}

// killRecover simulates the crash/restart cycle: kill the engine (no
// sync, no checkpoint), recover a new one from the directory.
func (sc *scenario) killRecover(eng *core.Engine, dir string, o durOpts) (*core.Engine, error) {
	if o.ckpt {
		if err := eng.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint before kill: %v", err)
		}
	}
	eng.Kill()
	return sc.openDurable(dir, o)
}

// checkRecovered runs the state battery against a just-recovered engine.
// A record that fails on replay already failed Open ("recovery-open").
// Check families carry a "recovery-" prefix so a failure is attributable
// to the crash/recover cycle rather than to live maintenance.
func (sc *scenario) checkRecovered(eng *core.Engine, st *datagen.GraphState) *Violation {
	if v := sc.checkMaintenance(eng, st); v != nil {
		v.Check = "recovery-" + v.Check
		return v
	}
	if v := sc.checkRelational(eng, st); v != nil {
		v.Check = "recovery-" + v.Check
		return v
	}
	if v := sc.checkFacets(eng, st); v != nil {
		v.Check = "recovery-" + v.Check
		return v
	}
	return nil
}

// RunRecovery executes the crash-recovery differential harness. The error
// return is for harness-infrastructure failures only (e.g. no writable
// temp directory); engine disagreements surface as Violations.
func RunRecovery(cfg Config) (*Report, error) {
	cfg = cfg.defaults()
	start := time.Now()
	rep := &Report{}
	for i := 0; ; i++ {
		if cfg.Rounds > 0 {
			if i >= cfg.Rounds {
				break
			}
		} else if i > 0 && time.Since(start) >= cfg.Duration {
			break
		}
		seed := RoundSeed(cfg.Seed, i)
		stmts, batches, v, err := runRecoveryRound(cfg, seed)
		if err != nil {
			return nil, err
		}
		rep.Rounds++
		rep.Statements += stmts
		rep.Batches += batches
		if v != nil {
			rep.Violations = append(rep.Violations, v)
			break
		}
		if cfg.Log != nil && (i+1)%10 == 0 {
			fmt.Fprintf(cfg.Log, "oracle/recovery: %d rounds, %d statements, %d kill/recover cycles, all passing\n",
				rep.Rounds, rep.Statements, rep.Batches)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// runRecoveryRound runs one crash-recovery round. batches counts
// completed kill/recover/check cycles.
func runRecoveryRound(cfg Config, roundSeed int64) (stmts, batches int, viol *Violation, err error) {
	sc := buildScenario(cfg, roundSeed)
	o := durOptsFor(roundSeed)
	dir, err := os.MkdirTemp("", "grfusion-oracle-")
	if err != nil {
		return 0, 0, nil, fmt.Errorf("recovery round temp dir: %v", err)
	}
	defer os.RemoveAll(dir)

	fail := func(v *Violation, ops []op) (int, int, *Violation, error) {
		v.Seed = roundSeed
		v.SetupSQL = sc.setupSQL()
		v.Statements = opSQL(ops)
		v.Detail += fmt.Sprintf(" [durability: %s]", o)
		if !cfg.NoMinimize {
			if strings.HasPrefix(v.Check, "recovery-") {
				v.Minimized = minimizeRecoveryOps(sc, o, ops, v)
			} else {
				v.Minimized = minimizeOps(sc, ops, v)
			}
		}
		return stmts, batches, v, nil
	}

	eng, err := sc.newDurableEngine(dir, o)
	if err != nil {
		return fail(violationf("setup", "%v", err), nil)
	}
	st := datagen.NewGraphState(sc.initial)
	opRNG := rand.New(rand.NewSource(roundSeed + 1))

	// Cycle 0: the initial bulk load must survive a crash.
	eng, rerr := sc.killRecover(eng, dir, o)
	if rerr != nil {
		v := violationf("recovery-open", "recovering initial load: %v", rerr)
		v.Batch = 0
		return fail(v, nil)
	}
	if v := sc.checkRecovered(eng, st); v != nil {
		v.Batch = 0
		return fail(v, nil)
	}
	batches++

	var ops []op
	for b := 1; b <= sc.batches; b++ {
		for j := 0; j < sc.opsPerBatch; j++ {
			m := st.Mutate(opRNG)
			rec := op{m: m, sql: sc.mutationSQL(m)}
			ops = append(ops, rec)
			stmts++
			_, err := eng.Execute(rec.sql)
			switch {
			case m.WantErr && err == nil:
				v := violationf("error-atomicity",
					"engine accepted invalid %s statement %q", m.Kind, rec.sql)
				v.Batch = b
				return fail(v, ops)
			case !m.WantErr && err != nil:
				v := violationf("unexpected-error",
					"engine rejected valid %s statement %q: %v", m.Kind, rec.sql, err)
				v.Batch = b
				return fail(v, ops)
			case err == nil:
				st.Apply(m)
			}
		}
		eng, rerr = sc.killRecover(eng, dir, o)
		if rerr != nil {
			v := violationf("recovery-open", "recovering after batch %d: %v", b, rerr)
			v.Batch = b
			return fail(v, ops)
		}
		if v := sc.checkRecovered(eng, st); v != nil {
			v.Batch = b
			return fail(v, ops)
		}
		batches++
	}
	eng.Close()
	return stmts, batches, nil, nil
}

// replayRecoveryOps replays a candidate subset against a fresh durable
// engine in its own directory, then kills and recovers it and returns the
// recovery check that fails, if any: "recovery-open" when recovery refuses
// the directory, else the state battery's. Returns ok=false when the
// harness itself cannot replay (treat as "does not reproduce").
func replayRecoveryOps(sc *scenario, o durOpts, kept []op) (v *Violation, ok bool) {
	dir, err := os.MkdirTemp("", "grfusion-oracle-min-")
	if err != nil {
		return nil, false
	}
	defer os.RemoveAll(dir)
	eng, err := sc.newDurableEngine(dir, o)
	if err != nil {
		return nil, false
	}
	st := datagen.NewGraphState(sc.initial)
	for _, rec := range kept {
		if _, err := eng.Execute(rec.sql); err == nil {
			st.Apply(rec.m)
		}
	}
	if eng, err = sc.killRecover(eng, dir, o); err != nil {
		return violationf("recovery-open", "%v", err), true
	}
	defer eng.Close()
	return sc.checkRecovered(eng, st), true
}

// minimizeRecoveryOps is minimizeOps for "recovery-*" violations: the
// predicate replays the subset durably, crashes, recovers, and asks
// whether the same recovery check family still fails.
func minimizeRecoveryOps(sc *scenario, o durOpts, ops []op, v *Violation) []string {
	check := v.Check
	runs := 0
	reproduces := func(kept []op) bool {
		if runs >= maxPredicateRuns {
			return false
		}
		runs++
		got, ok := replayRecoveryOps(sc, o, kept)
		return ok && got != nil && got.Check == check
	}
	if !reproduces(ops) {
		return nil
	}
	kept := ddmin(ops, reproduces)
	return opSQL(kept)
}
