package core

import (
	"log"
	"time"
)

// Statistics maintenance (§6.3): "GRFusion has a configuration to store
// the average fan-out of graph views as a statistics object. If this
// configuration is enabled, GRFusion runs a thread in the backend to
// compute the average fan-out using the compact graph-view structures."
//
// StartStatistics launches that backend refresher; the optimizer picks up
// each view's published GraphStats when choosing physical traversal
// operators.
//
// Concurrency audit (the refresher is the one long-lived goroutine that
// touches engine state): a refresh only *reads* catalog and topology —
// ComputeStats walks the published topology version, and publication goes
// through GraphView.SetStats, an atomic-pointer store that racing readers
// observe via the matching atomic load in GraphView.Stats. It runs under
// the engine's *shared* lock, concurrent with queries, and never blocks
// them; DML/DDL are excluded by the write lock, so the published version
// it reads is the current one. The statsMu below guards only the refresher's own
// lifecycle fields (statsStop/statsDone) — every Start/Close path takes it
// before touching them.

// RefreshStatistics recomputes and publishes the statistics object of
// every graph view once, synchronously.
func (e *Engine) RefreshStatistics() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.refreshStatsLocked()
}

func (e *Engine) refreshStatsLocked() {
	now := time.Now()
	st := e.state.Load() // the head: writers are excluded
	for _, name := range e.cat.GraphViews() {
		gv, ok := e.cat.GraphView(name)
		if !ok {
			continue
		}
		gv.SetStats(gv.ComputeStats(st.GraphView(gv).Topo, now))
		e.metrics.StatsRefreshes.Inc()
	}
}

// StartStatistics enables the backend statistics thread with the given
// refresh interval. It refreshes once immediately. Calling it again
// restarts the thread with the new interval. Stop with Close.
func (e *Engine) StartStatistics(interval time.Duration) {
	if interval <= 0 {
		return
	}
	e.RefreshStatistics()
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	e.stopStatsLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	e.statsStop = stop
	e.statsDone = done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				e.RefreshStatistics()
			}
		}
	}()
}

// Close stops background work (the statistics thread) and, on a durable
// engine, syncs and closes the WAL without a final checkpoint (use
// Shutdown for checkpoint-on-exit). A non-durable engine remains usable
// for statements afterwards; a durable one keeps serving reads but
// rejects further mutations.
func (e *Engine) Close() {
	e.stopHealer()
	e.statsMu.Lock()
	e.stopStatsLocked()
	e.statsMu.Unlock()
	e.mu.Lock()
	lg := e.dur.log
	e.mu.Unlock()
	if lg != nil {
		if err := lg.Close(); err != nil {
			log.Printf("core: close wal: %v", err)
		}
	}
}

func (e *Engine) stopStatsLocked() {
	if e.statsStop != nil {
		close(e.statsStop)
		<-e.statsDone
		e.statsStop = nil
		e.statsDone = nil
	}
}
