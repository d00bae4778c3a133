package catalog

import (
	"time"

	"grfusion/internal/graph"
)

// GraphStats is the per-graph-view statistics object of §6.3: the paper
// keeps the average fan-out of each graph view in the system catalog and,
// when the statistics configuration is enabled, refreshes it with a
// backend thread walking the compact graph-view structures. The optimizer
// consults it to choose between the BFS and DFS physical operators.
type GraphStats struct {
	// AvgFanOut is the mean traversable degree (the §6.3 F statistic).
	AvgFanOut float64
	// MaxFanOut is the largest traversable degree — high skew (Twitter-like
	// hubs) makes breadth-first frontiers explode faster than AvgFanOut
	// alone predicts.
	MaxFanOut int
	// Vertices and Edges are the topology counts at refresh time.
	Vertices, Edges int
	// UpdatedAt stamps the refresh.
	UpdatedAt time.Time
	// MaintOps is the view's maintenance-operation count at refresh time;
	// FreshStats compares it against the live count to detect statistics
	// that predate heavy DML.
	MaintOps int64
}

// ComputeStats walks a version of the topology and builds a fresh
// statistics object. It is O(V) and intended for the background
// refresher, not per query.
func (gv *GraphView) ComputeStats(c *graph.CSR, now time.Time) *GraphStats {
	st := &GraphStats{
		AvgFanOut: c.AvgFanOut(),
		Vertices:  c.NumVertices(),
		Edges:     c.NumEdges(),
		UpdatedAt: now,
		MaintOps:  gv.maintOps.Load(),
	}
	c.Vertices(func(v *graph.Vertex) bool {
		if d := c.FanOut(v); d > st.MaxFanOut {
			st.MaxFanOut = d
		}
		return true
	})
	return st
}

// SetStats publishes a statistics object for optimizer use.
func (gv *GraphView) SetStats(st *GraphStats) { gv.stats.Store(st) }

// Stats returns the last published statistics object, or nil when the
// statistics configuration is disabled or no refresh has run yet (the
// optimizer then falls back to the O(1) live average fan-out).
func (gv *GraphView) Stats() *GraphStats { return gv.stats.Load() }

// InvalidateStats withdraws the published statistics object. The engine
// calls it when the topology is rebuilt wholesale (RebuildGraphView,
// snapshot restore): counts measured on the previous topology must not
// steer the §6.3 BFS/DFS choice on the new one.
func (gv *GraphView) InvalidateStats() { gv.stats.Store(nil) }

// MaintOps reports how many incremental maintenance operations have been
// applied to the topology since the view was built.
func (gv *GraphView) MaintOps() int64 { return gv.maintOps.Load() }

// staleDriftFloor is the minimum number of maintenance operations that can
// mark a statistics object stale; below it, drift on tiny graphs would
// invalidate statistics after every handful of rows.
const staleDriftFloor = 64

// FreshStats returns the published statistics object only while it is
// still representative: statistics drop out once the maintenance-operation
// count has drifted by more than max(64, (V+E)/8) since they were
// computed — bulk DML between refreshes otherwise leaves the optimizer
// choosing physical operators from counts measured on a graph that no
// longer exists. Returns nil when no fresh statistics are available (the
// optimizer then falls back to the live O(1) average fan-out).
func (gv *GraphView) FreshStats() *GraphStats {
	st := gv.stats.Load()
	if st == nil {
		return nil
	}
	limit := int64(st.Vertices+st.Edges) / 8
	if limit < staleDriftFloor {
		limit = staleDriftFloor
	}
	if gv.maintOps.Load()-st.MaintOps > limit {
		return nil
	}
	return st
}
