package bench

import (
	"strings"
	"testing"
)

// TestMVCCStormMixedWorkload is the race-gated storm lane: readers (path
// probes + analytics TVFs) run concurrently with a sustained DML writer on
// one engine, so under -race it doubles as a data-race detector for the
// MVCC read path while validating the row shape the gate consumes.
func TestMVCCStormMixedWorkload(t *testing.T) {
	cfg := tiny()
	rows := mvccStorm(cfg)
	want := map[string]bool{
		"mixed nowriter|read_p50_ms": false,
		"mixed nowriter|read_p99_ms": false,
		"mixed storm|read_p50_ms":    false,
		"mixed storm|read_p99_ms":    false,
		"tvf nowriter|read_p99_ms":   false,
		"tvf storm|read_p99_ms":      false,
		"mixed|p99_ratio":            false,
		"mixed|write_ops_per_sec":    false,
	}
	for _, r := range rows {
		if strings.HasPrefix(r.Note, "ABORT") {
			t.Fatalf("storm aborted: %+v", r)
		}
		key := r.Param + "|" + r.Metric
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected row %s", key)
			continue
		}
		want[key] = true
		if r.Metric != "write_ops_per_sec" && r.Value <= 0 {
			t.Errorf("%s: non-positive value %g", key, r.Value)
		}
	}
	for key, seen := range want {
		if !seen {
			t.Errorf("missing row %s", key)
		}
	}
}

// stormRows builds a plausible mixed-workload row set with the given ratio.
func stormRows(ratio float64) []Row {
	mk := func(param, metric string, v float64) Row {
		return Row{Experiment: "concurrency", Dataset: "twitter", System: "grfusion",
			Param: param, Metric: metric, Value: v}
	}
	return []Row{
		mk("mixed nowriter", "read_p50_ms", 0.2),
		mk("mixed nowriter", "read_p99_ms", 1.0),
		mk("mixed storm", "read_p50_ms", 0.3),
		mk("mixed storm", "read_p99_ms", ratio),
		mk("mixed", "p99_ratio", ratio),
		mk("mixed", "write_ops_per_sec", 500),
	}
}

// TestCheckConcurrencyBaseline runs the claim table's storm row over a
// concurrency run: the p99 ratio ceiling is 2x (4x on one core), a run
// without the ratio row or with an aborted storm measurement fails, and no
// committed baseline file is read.
func TestCheckConcurrencyBaseline(t *testing.T) {
	aborted := stormRows(1.5)
	aborted[3].Note = "ABORT: boom"
	for _, tc := range []struct {
		name  string
		rows  []Row
		cores int
		want  string // substring of the one expected error; "" = the run passes
	}{
		{"under the 2x ceiling", stormRows(1.5), 2, ""},
		{"past the 2x ceiling", stormRows(2.5), 2, "mixed p99_ratio: value = 2.5, want <= 2"},
		{"one core doubles the ceiling", stormRows(2.5), 1, ""},
		{"past the one-core ceiling", stormRows(4.5), 1, "mixed p99_ratio: value = 4.5, want <= 4"},
		{"no p99_ratio row", stormRows(1.5)[:4], 2, "gate matches no row"},
		{"aborted storm measurement", aborted, 2, `mixed storm read_p99_ms: note "ABORT: boom"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := Check(tc.rows, tc.cores)
			if tc.want == "" {
				if len(errs) != 0 {
					t.Fatalf("want the run to pass, got %v", errs)
				}
				return
			}
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.want) {
				t.Fatalf("want one error containing %q, got %v", tc.want, errs)
			}
		})
	}
}

func TestQuantileMS(t *testing.T) {
	lat := []float64{5, 1, 3, 2, 4}
	if got := quantileMS(lat, 0.5); got != 3 {
		t.Errorf("p50 = %g, want 3", got)
	}
	if got := quantileMS(lat, 0.99); got != 5 {
		t.Errorf("p99 = %g, want 5", got)
	}
	if got := quantileMS(nil, 0.5); got != 0 {
		t.Errorf("empty = %g, want 0", got)
	}
}
