package core

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Disk-fault tolerance (degraded read-only mode + self-healing).
//
// The engine's durability path — WAL appends, fsyncs, checkpoint writes —
// is the one place a disk fault can poison an otherwise healthy in-memory
// database. Instead of failing every subsequent write forever (the
// pre-PR-8 behavior once the log marked itself broken), the engine runs a
// small state machine:
//
//	healthy ──(wal unusable | ENOSPC | hard watermark)──▶ degraded
//	degraded ──(backoff elapsed)──▶ healing (one heal attempt)
//	healing ──(attempt fails)──▶ degraded          (backoff doubles, capped)
//	healing ──(attempt succeeds)──▶ healthy
//
// While degraded, reads/EXPLAIN/SHOW/analytics keep serving on pinned
// versions exactly as before — they never touch the WAL — and every
// mutating statement fails fast with ErrDegraded before applying anything.
// Because a statement applies before it is logged and is undone when the
// log refuses it, the in-memory state is precisely the acknowledged
// history, so healing can always re-establish durability by checkpointing
// memory and rotating in a fresh log; no acknowledged write is ever lost
// across a degrade → heal → crash cycle.

// HealthState is the engine's durability health.
type HealthState int32

const (
	// StateHealthy: the durability path works; mutating statements log
	// and apply normally.
	StateHealthy HealthState = iota
	// StateDegraded: the WAL or disk is failing; the engine serves reads
	// only and a background healer is attempting to heal.
	StateDegraded
	// StateHealing: a heal attempt is running right now (it holds the
	// statement write lock, so the state is externally visible only
	// through the health surface).
	StateHealing
)

func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateHealing:
		return "healing"
	default:
		return fmt.Sprintf("HealthState(%d)", int32(s))
	}
}

// Default heal backoff bounds (Durability.HealBase/HealMax override).
const (
	defaultHealBase = 25 * time.Millisecond
	defaultHealMax  = 2 * time.Second
)

// healthState is the engine-embedded health machine. The atomic state
// supports lock-free reads from /healthz-style probes; transitions happen
// only under the engine write lock (degradeLocked, tryHeal), so they are
// serialized. The small mutex guards the descriptive fields and the
// healer goroutine's lifecycle channels — never held while acquiring any
// other lock.
type healthState struct {
	state   atomic.Int32
	durable atomic.Bool

	mu      sync.Mutex
	reason  string    // what degraded the engine ("" when healthy)
	healErr string    // latest failed heal attempt ("" if none yet)
	since   time.Time // when the engine degraded
	stop    chan struct{}
	done    chan struct{}

	healBase, healMax time.Duration
}

func (h *healthState) isDegraded() bool {
	return HealthState(h.state.Load()) != StateHealthy
}

// Health is a point-in-time snapshot of the engine's durability health,
// the single source every surface (SHOW HEALTH, the wire health command,
// /healthz, /readyz) renders from.
type Health struct {
	State   HealthState
	Durable bool
	// Reason is what degraded the engine; LastHealError is the most
	// recent failed heal attempt. Both empty while healthy.
	Reason        string
	LastHealError string
	// Since is when the engine degraded (zero while healthy).
	Since time.Time
	// Cumulative counters (mirrored in SHOW METRICS).
	HealAttempts   int64
	Heals          int64
	DegradedWrites int64
}

// Ready reports whether the engine should receive write traffic
// (/readyz): durable and healthy, or not durable at all.
func (h Health) Ready() bool { return h.State == StateHealthy }

// Pairs renders the snapshot as ordered name/value string rows — the
// shared shape of SHOW HEALTH and the wire health command.
func (h Health) Pairs() [][2]string {
	degradedForMS := int64(0)
	since := ""
	if !h.Since.IsZero() {
		degradedForMS = time.Since(h.Since).Milliseconds()
		since = h.Since.UTC().Format(time.RFC3339Nano)
	}
	return [][2]string{
		{"state", h.State.String()},
		{"durable", strconv.FormatBool(h.Durable)},
		{"ready", strconv.FormatBool(h.Ready())},
		{"reason", h.Reason},
		{"last_heal_error", h.LastHealError},
		{"since", since},
		{"degraded_for_ms", strconv.FormatInt(degradedForMS, 10)},
		{"heal_attempts", strconv.FormatInt(h.HealAttempts, 10)},
		{"heals", strconv.FormatInt(h.Heals, 10)},
		{"degraded_writes", strconv.FormatInt(h.DegradedWrites, 10)},
	}
}

// Health returns the engine's current durability health. It takes no
// engine lock, so it stays responsive while statements (or a heal attempt)
// hold the write lock — exactly what a liveness endpoint needs.
func (e *Engine) Health() Health {
	h := &e.health
	h.mu.Lock()
	reason, healErr, since := h.reason, h.healErr, h.since
	h.mu.Unlock()
	return Health{
		State:          HealthState(h.state.Load()),
		Durable:        h.durable.Load(),
		Reason:         reason,
		LastHealError:  healErr,
		Since:          since,
		HealAttempts:   e.metrics.HealAttempts.Value(),
		Heals:          e.metrics.Heals.Value(),
		DegradedWrites: e.metrics.DegradedWrites.Value(),
	}
}

// degradeLocked flips the engine into degraded read-only mode and starts
// the background healer. Requires the engine write lock (all state
// transitions are serialized under it); no-op if already degraded.
func (e *Engine) degradeLocked(reason string) {
	h := &e.health
	if h.isDegraded() {
		return
	}
	h.mu.Lock()
	h.state.Store(int32(StateDegraded))
	h.reason, h.healErr, h.since = reason, "", time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	h.stop, h.done = stop, done
	h.mu.Unlock()
	e.metrics.DurabilityDegraded.Set(1)
	log.Printf("core: entering degraded read-only mode: %s", reason)
	go e.healLoop(stop, done)
}

// stopHealer terminates the background healer, if any, and waits for it.
// Callers must NOT hold the engine lock (the healer takes it per attempt).
func (e *Engine) stopHealer() {
	h := &e.health
	h.mu.Lock()
	stop, done := h.stop, h.done
	h.stop, h.done = nil, nil
	h.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// healLoop retries the heal with capped exponential backoff and full
// jitter until an attempt succeeds or the engine shuts down. Jitter
// spreads attempts out so many engines degraded by the same shared-disk
// incident do not retry in lockstep.
func (e *Engine) healLoop(stop, done chan struct{}) {
	defer close(done)
	h := &e.health
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := h.healBase
	for {
		delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-stop:
			return
		case <-time.After(delay):
		}
		e.metrics.HealAttempts.Inc()
		if e.tryHeal() {
			return
		}
		if backoff *= 2; backoff > h.healMax {
			backoff = h.healMax
		}
	}
}

// tryHeal runs one heal attempt under the write lock. Returning true ends the
// heal loop (healed, or nothing left to heal).
func (e *Engine) tryHeal() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := &e.health
	if e.dur.log == nil || HealthState(h.state.Load()) != StateDegraded {
		return true
	}
	h.state.Store(int32(StateHealing))
	if err := e.healAttemptLocked(); err != nil {
		h.state.Store(int32(StateDegraded))
		h.mu.Lock()
		h.healErr = err.Error()
		h.mu.Unlock()
		return false
	}
	h.state.Store(int32(StateHealthy))
	h.mu.Lock()
	h.reason, h.healErr, h.since = "", "", time.Time{}
	h.mu.Unlock()
	e.metrics.Heals.Inc()
	e.metrics.DurabilityDegraded.Set(0)
	log.Printf("core: durability healed; engine returned to read-write")
	return true
}

// healAttemptLocked re-establishes the durability path: the disk-space
// gate (no point churning a full disk), then a checkpoint. The in-memory
// state is exactly the acknowledged history — a statement applies before
// it is logged and is undone if the log refuses it — so imaging it both
// retries any checkpoint that failed while degraded and covers every
// record of the old (possibly broken, possibly mid-frame) log. The
// rotation inside the checkpoint swaps in a fresh log, clears the broken
// marker, and writes and fsyncs the fresh log's header on the very handle
// the next append uses: a heal that succeeds has proved that writes reach
// stable storage. A crash inside it is a checkpoint crash window like any
// other: records at or below the checkpoint LSN are skipped on replay.
func (e *Engine) healAttemptLocked() error {
	d := &e.dur
	if free, ok := d.fs.Free(d.dir); ok && d.hardFree > 0 && free < d.hardFree {
		return fmt.Errorf("free disk space %d B still under hard watermark %d B", free, d.hardFree)
	}
	if err := e.checkpointLocked(); err != nil {
		return fmt.Errorf("checkpoint retry: %w", err)
	}
	return nil
}
