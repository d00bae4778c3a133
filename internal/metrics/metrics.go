// Package metrics implements the engine's observability counters: cheap
// lock-free counters and bounded latency histograms that the hot path can
// update with single atomic adds, plus a snapshot API the SQL surface
// (SHOW METRICS), the wire protocol (METRICS), and the HTTP endpoint all
// render from. The design follows VoltDB's @Statistics system procedure —
// the substrate GRFusion extends — where engine internals are queryable
// through the same interfaces as data.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable atomic level (0/1 health flags, watermark states).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value reads the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a bounded log2-bucket latency histogram: bucket i counts
// observations in [2^(i-1), 2^i) microseconds (bucket 0 is < 1µs, the last
// bucket absorbs everything above its floor). Fixed size, no allocation,
// one atomic add per observation.
type Histogram struct {
	buckets [hBuckets]atomic.Int64
	count   atomic.Int64
	sumUS   atomic.Int64
	maxUS   atomic.Int64
}

// hBuckets spans <1µs through >=2^30µs (~18 minutes) in powers of two.
const hBuckets = 32

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 for <1µs, then log2+1
	if b >= hBuckets {
		b = hBuckets - 1
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
	for {
		cur := h.maxUS.Load()
		if us <= cur || h.maxUS.CompareAndSwap(cur, us) {
			return
		}
	}
}

// Count is the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// MeanUS is the mean observation in microseconds (0 when empty).
func (h *Histogram) MeanUS() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sumUS.Load() / n
}

// MaxUS is the largest observation in microseconds.
func (h *Histogram) MaxUS() int64 { return h.maxUS.Load() }

// QuantileUS approximates the q-quantile (0 < q <= 1) in microseconds from
// the bucket boundaries: it returns the upper bound of the bucket holding
// the q-th observation, so the estimate is within 2x of the true value.
func (h *Histogram) QuantileUS(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < hBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 1
			}
			return 1 << i // upper bound of [2^(i-1), 2^i)
		}
	}
	return h.maxUS.Load()
}

// Statement kinds counted by the engine. The order is the display order.
const (
	StmtSelect = iota
	StmtInsert
	StmtUpdate
	StmtDelete
	StmtDDL // CREATE/DROP of tables, views, graph views, indexes
	StmtExplain
	StmtShow
	StmtSet
	StmtOther
	numStmtKinds
)

var stmtKindNames = [numStmtKinds]string{
	"select", "insert", "update", "delete", "ddl", "explain", "show", "set", "other",
}

// Error classes counted by the engine, keyed to the typed lifecycle
// sentinels of PR 3.
const (
	ErrTimeout = iota
	ErrCanceled
	ErrMemLimit
	ErrPanic
	ErrDegraded
	ErrOther
	numErrClasses
)

var errClassNames = [numErrClasses]string{
	"timeout", "canceled", "mem_limit", "panic", "degraded", "other",
}

// Metrics is the engine-wide registry. All fields are safe for concurrent
// use; the zero value is ready.
type Metrics struct {
	// Statements by kind, and their end-to-end latency (including lock
	// wait) for completed statements.
	Statements [numStmtKinds]Counter
	Latency    Histogram

	// Errors by class (timeout, canceled, mem_limit, panic, other).
	Errors [numErrClasses]Counter

	// ShedAdmissions counts statements the server refused under admission
	// control (they never started executing).
	ShedAdmissions Counter

	// LockWriteWaitNS is the time mutating statements waited for the
	// engine's writer lock. Readers pin a version and never wait.
	LockWriteWaitNS Counter

	// MVCC version lifecycle: versions published by mutating statements,
	// retained (still pinned or current) versions, the current version
	// sequence number, and readers currently holding a pin.
	MVCCPublished     Counter
	MVCCVersionsLive  Gauge
	MVCCSeq           Gauge
	MVCCPinnedReaders Gauge

	// SlowQueries counts statements that crossed the slow-query threshold.
	SlowQueries Counter

	// AnalyticsRuns counts whole-graph analytics scan executions
	// (PAGERANK, CONNECTED_COMPONENTS, LABEL_PROPAGATION,
	// DEGREE_CENTRALITY); AnalyticsIters accumulates their iterations
	// (BFS levels for components); AnalyticsMemoHits counts the
	// executions a topology version's memoized result answered without
	// running the kernel.
	AnalyticsRuns     Counter
	AnalyticsIters    Counter
	AnalyticsMemoHits Counter

	// Durability counters: WAL records appended and their total frame
	// bytes, fsyncs issued by the log, checkpoints taken, and recoveries
	// performed (crash-recovery opens of an existing WAL directory).
	WALAppends     Counter
	WALAppendBytes Counter
	WALFsyncs      Counter
	WALCheckpoints Counter
	WALRecoveries  Counter

	// Disk-fault tolerance: DurabilityDegraded is 1 while the engine is
	// in degraded read-only mode (or probing to leave it), 0 when the
	// durability path is healthy. HealAttempts counts background heal
	// probes, Heals counts successful returns to read-write, and
	// DegradedWrites counts mutating statements rejected with
	// ErrDegraded while degraded.
	DurabilityDegraded Gauge
	HealAttempts       Counter
	Heals              Counter
	DegradedWrites     Counter

	// Bulk-ingest counters (core.BulkLoad, fed by the wire COPY command):
	// loads opened, batches applied, and rows applied.
	BulkLoads   Counter
	BulkBatches Counter
	BulkRows    Counter
}

// CountStatement records one completed statement of the given kind with
// its end-to-end latency.
func (m *Metrics) CountStatement(kind int, d time.Duration) {
	if kind < 0 || kind >= numStmtKinds {
		kind = StmtOther
	}
	m.Statements[kind].Inc()
	m.Latency.Observe(d)
}

// CountError records one failed statement by error class.
func (m *Metrics) CountError(class int) {
	if class < 0 || class >= numErrClasses {
		class = ErrOther
	}
	m.Errors[class].Inc()
}

// KV is one named metric value.
type KV struct {
	Name  string
	Value int64
}

// GraphViewStats is the per-view gauge set a snapshot includes; the engine
// supplies these from the catalog at snapshot time so the maintenance hot
// path never touches this package.
type GraphViewStats struct {
	Name     string
	Vertices int64
	Edges    int64
	MaintOps int64
	// CSR topology gauges: how many mains were laid out (the view's
	// creation plus every merge of its delta) and their cumulative layout
	// time; traversal reads of a version with an empty delta (hits) and
	// of one that walked a delta (misses); the current main's approximate
	// resident size.
	CSRBuilds  int64
	CSRBuildNS int64
	CSRHits    int64
	CSRMisses  int64
	CSRBytes   int64
	// ColumnBuilds counts the typed columns (pushed-filter and SPScan
	// weight columns) the view's pinned bindings laid out.
	ColumnBuilds int64
}

// Snapshot renders every engine-wide counter plus the supplied per-view
// gauges as a sorted name/value list. Counters are read individually (not
// atomically as a set), which is fine for monitoring.
func (m *Metrics) Snapshot(views []GraphViewStats) []KV {
	var out []KV
	var total int64
	for i := 0; i < numStmtKinds; i++ {
		v := m.Statements[i].Value()
		total += v
		out = append(out, KV{"statements." + stmtKindNames[i], v})
	}
	out = append(out, KV{"statements.total", total})
	for i := 0; i < numErrClasses; i++ {
		out = append(out, KV{"errors." + errClassNames[i], m.Errors[i].Value()})
	}
	var maintTotal int64
	for _, gv := range views {
		maintTotal += gv.MaintOps
	}
	out = append(out,
		KV{"latency.count", m.Latency.Count()},
		KV{"latency.mean_us", m.Latency.MeanUS()},
		KV{"latency.p50_us", m.Latency.QuantileUS(0.50)},
		KV{"latency.p99_us", m.Latency.QuantileUS(0.99)},
		KV{"latency.max_us", m.Latency.MaxUS()},
		KV{"admission.shed", m.ShedAdmissions.Value()},
		KV{"lock.write_wait_ns", m.LockWriteWaitNS.Value()},
		KV{"mvcc.published", m.MVCCPublished.Value()},
		KV{"mvcc.versions_live", m.MVCCVersionsLive.Value()},
		KV{"mvcc.seq", m.MVCCSeq.Value()},
		KV{"mvcc.pinned_readers", m.MVCCPinnedReaders.Value()},
		KV{"graph.maint_ops", maintTotal},
		KV{"analytics.runs", m.AnalyticsRuns.Value()},
		KV{"analytics.iterations", m.AnalyticsIters.Value()},
		KV{"analytics.memo_hits", m.AnalyticsMemoHits.Value()},
		KV{"slow_queries", m.SlowQueries.Value()},
		KV{"wal.appends", m.WALAppends.Value()},
		KV{"wal.bytes", m.WALAppendBytes.Value()},
		KV{"wal.fsyncs", m.WALFsyncs.Value()},
		KV{"wal.checkpoints", m.WALCheckpoints.Value()},
		KV{"wal.recoveries", m.WALRecoveries.Value()},
		KV{"durability.degraded", m.DurabilityDegraded.Value()},
		KV{"durability.heal_attempts", m.HealAttempts.Value()},
		KV{"durability.heals", m.Heals.Value()},
		KV{"durability.degraded_writes", m.DegradedWrites.Value()},
		KV{"bulk.loads", m.BulkLoads.Value()},
		KV{"bulk.batches", m.BulkBatches.Value()},
		KV{"bulk.rows", m.BulkRows.Value()},
	)
	for _, gv := range views {
		p := "graphview." + gv.Name + "."
		out = append(out,
			KV{p + "vertices", gv.Vertices},
			KV{p + "edges", gv.Edges},
			KV{p + "maint_ops", gv.MaintOps},
			KV{p + "csr_builds", gv.CSRBuilds},
			KV{p + "csr_build_ns", gv.CSRBuildNS},
			KV{p + "csr_hits", gv.CSRHits},
			KV{p + "csr_misses", gv.CSRMisses},
			KV{p + "csr_bytes", gv.CSRBytes},
			KV{p + "column_builds", gv.ColumnBuilds},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StmtKindName names a statement kind for logs.
func StmtKindName(kind int) string {
	if kind < 0 || kind >= numStmtKinds {
		return fmt.Sprintf("kind(%d)", kind)
	}
	return stmtKindNames[kind]
}
