package core

import (
	"sync/atomic"

	"grfusion/internal/catalog"
	"grfusion/internal/storage"
)

// This file implements the engine's multi-version concurrency control.
//
// Every successful mutating statement publishes one immutable dbState: the
// catalog as of that statement, a copy-on-write snapshot of every table,
// and a version binding for every graph view. The current state lives in
// an atomic pointer; a read-only statement pins it with one atomic load
// plus a pin count and then executes entirely against the pinned version —
// it never takes the engine lock, so readers cannot stall behind writers
// and writers cannot stall behind long reads. Writers still serialize
// among themselves under the exclusive lock (the §3.3 maintenance
// invariant needs transactional view maintenance), build the next version
// privately, and publish it with a single pointer swap after the WAL
// settles.
//
// Plans hold no version: the execution's pin (exec.Context.Pin, a
// dbState) hands each operator its snapshot or view binding at Open, so a
// Prepared plans once per catalog and keeps its plan across writes.
//
// Reclamation is epoch-like but delegated to the garbage collector: a
// superseded state is unreachable from the engine once no reader pins it,
// so its snapshots and any superseded topology main are collected
// naturally. The engine keeps a small writer-guarded registry of
// potentially-live states purely to drive the mvcc.versions_live gauge; it
// is pruned at every publish.
//
// The copy-on-write protocol the snapshots rely on:
//
//   - Tables alias their row slab into a TableSnap (storage/snapshot.go);
//     the first in-place overwrite of a shared slot copies the slab, and
//     appends stay invisible past the snapshot's length clamp.
//   - Live indexes, the primary key included, may run ahead of a pinned
//     snapshot; TableSnap.Probe verifies the table version around the
//     index read and falls back to filtering the snapshot when it moved
//     (storage/snapshot.go).
//   - Graph-view topologies are an immutable CSR main plus an append-only
//     delta (graph/topology.go); maintenance only appends, publish binds
//     (main, delta length) in O(1) after folding a delta that outgrew its
//     threshold into a new main, and a pinned GraphViewAt never sees an
//     event past its length — no topology is ever copied.
//   - DDL, CREATE INDEX and Restore included, clones the catalog registry
//     before mutating it, so a changed catalog is a new pointer.

// dbState is one published engine version. All fields but pins are
// immutable after publish.
type dbState struct {
	seq   uint64
	cat   *catalog.Catalog
	snaps map[*storage.Table]*storage.TableSnap
	ats   map[*catalog.GraphView]*catalog.GraphViewAt

	// pins counts readers currently executing against this state.
	pins atomic.Int64
}

// Table implements exec.Pin. A plan runs only on versions of the catalog
// it was built under, so t is always one of this version's tables.
func (st *dbState) Table(t *storage.Table) storage.RowView { return st.snaps[t] }

// GraphView implements exec.Pin, under the same rule as Table.
func (st *dbState) GraphView(gv *catalog.GraphView) *catalog.GraphViewAt { return st.ats[gv] }

// publishLocked builds and publishes the next version from the current
// catalog and live objects. Requires the write lock; call only after a
// mutating statement fully applied (and its WAL record settled).
func (e *Engine) publishLocked() {
	var seq uint64 = 1
	if prev := e.state.Load(); prev != nil {
		seq = prev.seq + 1
	}
	st := &dbState{
		seq:   seq,
		cat:   e.cat,
		snaps: make(map[*storage.Table]*storage.TableSnap),
		ats:   make(map[*catalog.GraphView]*catalog.GraphViewAt),
	}
	for _, name := range e.cat.Tables() {
		if t, ok := e.cat.Table(name); ok {
			st.snaps[t] = t.Snapshot()
		}
	}
	for _, name := range e.cat.GraphViews() {
		if gv, ok := e.cat.GraphView(name); ok {
			// However many changes the statement made, no published version
			// carries a delta past its merge threshold. O(1) unless a merge
			// is due, which the delta's size amortizes.
			gv.SettleTopology()
			// At hands back the previous binding while the version and both
			// sources are unchanged, so a binding's SPScan weight columns
			// outlive writes to other tables.
			st.ats[gv] = gv.At(gv.Version(), st.Table(gv.VertexTable()), st.Table(gv.EdgeTable()))
		}
	}
	e.state.Store(st)
	e.metrics.MVCCPublished.Inc()
	e.metrics.MVCCSeq.Set(int64(seq))

	// Prune the gauge registry: drop superseded states nobody pins. The
	// pins check races readers of *older* registry entries only in the
	// direction of keeping an entry one publish longer — a reader can only
	// pin the current state, which is always retained.
	e.states = append(e.states, st)
	kept := e.states[:0]
	for _, s := range e.states {
		if s == st || s.pins.Load() > 0 {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(e.states); i++ {
		e.states[i] = nil
	}
	e.states = kept
	e.metrics.MVCCVersionsLive.Set(int64(len(e.states)))
}

// pin takes a read reference on the current version. The state pointer is
// never recycled (reclamation is by GC), so load-then-increment cannot
// resurrect a freed version; a publish between the load and the increment
// just means this reader observes the previous version, which is exactly
// snapshot semantics.
func (e *Engine) pin() *dbState {
	st := e.state.Load()
	st.pins.Add(1)
	e.metrics.MVCCPinnedReaders.Set(e.pinned.Add(1))
	return st
}

// unpin releases a read reference.
func (e *Engine) unpin(st *dbState) {
	st.pins.Add(-1)
	e.metrics.MVCCPinnedReaders.Set(e.pinned.Add(-1))
}

// VersionSeq returns the sequence number of the currently published
// version (0 before the first publish completes).
func (e *Engine) VersionSeq() uint64 {
	if st := e.state.Load(); st != nil {
		return st.seq
	}
	return 0
}
