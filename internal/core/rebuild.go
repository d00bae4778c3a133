package core

import (
	"fmt"

	"grfusion/internal/graph"
)

// This file holds the engine hooks the differential-testing oracle
// (internal/oracle) drives: forcing a graph-view rebuild for the §3.3
// maintenance oracle, materializing the maintained topology for the
// reference kernels, forcing a topology merge, and resizing the traversal
// worker pool for the worker-count metamorphic relation. All are ordinary
// public API — readers pin a version and writers take the engine lock like
// any statement — but exist for testing, not for applications.

// RebuildGraphView reconstructs the named graph view's topology from the
// relational sources of the current version and returns the fresh graph
// WITHOUT replacing the live, incrementally maintained topology. The §3.3
// maintenance invariant says the two must be identical after any DML
// history; the oracle diffs them after every randomized DML batch. Like
// any reader it pins a version, so it never waits behind a writer.
func (e *Engine) RebuildGraphView(name string) (*graph.Graph, error) {
	st := e.pin()
	defer e.unpin(st)
	gv, ok := st.cat.GraphView(name)
	if !ok {
		return nil, fmt.Errorf("unknown graph view %q", name)
	}
	at := st.GraphView(gv)
	return gv.RebuildTopology(at.V, at.E)
}

// GraphTopology materializes the incrementally maintained topology of the
// named graph view, as of the current version, into a pointer graph whose
// adjacency lists follow the canonical order the engine's kernels walk —
// for structural comparison against a rebuild and for the pointer
// reference kernels. Repeated calls on an unchanged version return the
// same graph; callers must not mutate it.
func (e *Engine) GraphTopology(name string) (*graph.Graph, error) {
	st := e.pin()
	defer e.unpin(st)
	gv, ok := st.cat.GraphView(name)
	if !ok {
		return nil, fmt.Errorf("unknown graph view %q", name)
	}
	return st.GraphView(gv).Topo.Graph(), nil
}

// MergeGraphView folds the named view's topology delta into a fresh CSR
// main now rather than at its size threshold, and publishes a version
// bound to it. Answers do not change: a merge preserves the topology and
// its adjacency order.
func (e *Engine) MergeGraphView(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	gv, ok := e.cat.GraphView(name)
	if !ok {
		return fmt.Errorf("unknown graph view %q", name)
	}
	gv.MergeTopology()
	e.publishLocked()
	return nil
}

// SetWorkers resizes the multi-source traversal worker pool (see
// Options.Workers); the new size applies to statements started after the
// call. The oracle uses it to check that query results are byte-identical
// at any worker count.
func (e *Engine) SetWorkers(n int) {
	e.workers.Store(int64(n))
}
