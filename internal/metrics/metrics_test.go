package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		500 * time.Nanosecond, // bucket 0
		3 * time.Microsecond,
		100 * time.Microsecond,
		2 * time.Millisecond,
		40 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.MaxUS() != 40000 {
		t.Fatalf("max = %dus, want 40000", h.MaxUS())
	}
	// The p50 bucket upper bound must bracket the true median (100us)
	// within the histogram's 2x guarantee.
	if p50 := h.QuantileUS(0.50); p50 < 100 || p50 > 200 {
		t.Fatalf("p50 = %dus, want within [100,200]", p50)
	}
	if p100 := h.QuantileUS(1.0); p100 < 32768 {
		t.Fatalf("p100 = %dus, want >= 32768 (bucket holding 40ms)", p100)
	}
	if mean := h.MeanUS(); mean < 8000 || mean > 9000 {
		t.Fatalf("mean = %dus, want ~8420", mean)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if h.Count() != 1 || h.MaxUS() != 0 {
		t.Fatalf("negative observation not clamped: count=%d max=%d", h.Count(), h.MaxUS())
	}
}

func TestSnapshotShapes(t *testing.T) {
	var m Metrics
	m.CountStatement(StmtSelect, time.Millisecond)
	m.CountStatement(StmtInsert, time.Millisecond)
	m.CountStatement(-1, 0) // clamps to other
	m.CountError(ErrTimeout)
	m.CountError(999) // clamps to other
	m.ShedAdmissions.Inc()

	kvs := m.Snapshot([]GraphViewStats{{Name: "g", Vertices: 10, Edges: 20, MaintOps: 3}})
	got := map[string]int64{}
	for i, kv := range kvs {
		got[kv.Name] = kv.Value
		if i > 0 && kvs[i-1].Name >= kv.Name {
			t.Fatalf("snapshot not sorted: %q before %q", kvs[i-1].Name, kv.Name)
		}
	}
	want := map[string]int64{
		"statements.select":     1,
		"statements.insert":     1,
		"statements.other":      1,
		"statements.total":      3,
		"errors.timeout":        1,
		"errors.other":          1,
		"admission.shed":        1,
		"latency.count":         3,
		"graphview.g.vertices":  10,
		"graphview.g.edges":     20,
		"graphview.g.maint_ops": 3,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %d, want %d", k, got[k], v)
		}
	}
}

func TestStmtKindName(t *testing.T) {
	if StmtKindName(StmtSelect) != "select" {
		t.Fatalf("StmtKindName(StmtSelect) = %q", StmtKindName(StmtSelect))
	}
	if StmtKindName(99) != "kind(99)" {
		t.Fatalf("StmtKindName(99) = %q", StmtKindName(99))
	}
}
