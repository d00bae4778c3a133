package main

import (
	"bytes"
	"strings"
	"testing"

	"grfusion/internal/bench"
)

// TestGateFor pins what grbench does with the claim table after a run: a
// run whose rows hold every gate exits 0 and says so, and a run that
// violates one exits 1 with a "GATE FAIL" line on stderr naming each
// violating row.
func TestGateFor(t *testing.T) {
	storm := func(ratio float64, note string) []bench.Row {
		return []bench.Row{{Experiment: "concurrency", Dataset: "twitter", System: "grfusion",
			Param: "mixed", Metric: "p99_ratio", Value: ratio, Note: note}}
	}
	for _, tc := range []struct {
		name  string
		rows  []bench.Row
		cores int
		code  int
		fails []string // substrings, one per expected GATE FAIL line
	}{
		{"holds", storm(1.5, ""), 2, 0, nil},
		{"violated", storm(2.5, ""), 2, 1, []string{"concurrency twitter grfusion mixed p99_ratio: value = 2.5, want <= 2"}},
		{"one-core threshold", storm(2.5, ""), 1, 0, nil},
		{"aborted", storm(0, "ABORT: writer: boom"), 2, 1, []string{
			`concurrency twitter grfusion mixed p99_ratio: note "ABORT: writer: boom"`,
			"concurrency twitter grfusion mixed p99_ratio: no value: ABORT: writer: boom",
		}},
		{"renamed row", []bench.Row{{Experiment: "concurrency", Dataset: "twitter", System: "grfusion",
			Param: "mixed", Metric: "p99", Value: 1}}, 2, 1, []string{"gate matches no row"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := gate(&stdout, &stderr, tc.rows, tc.cores); code != tc.code {
				t.Fatalf("exit code %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if tc.code == 0 {
				if stderr.Len() != 0 || !strings.Contains(stdout.String(), "every claim holds") {
					t.Fatalf("stdout %q, stderr %q; want only the all-clear", stdout.String(), stderr.String())
				}
				return
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if stdout.Len() != 0 || len(lines) != len(tc.fails) {
				t.Fatalf("stdout %q, stderr %q; want %d GATE FAIL lines", stdout.String(), stderr.String(), len(tc.fails))
			}
			for i, want := range tc.fails {
				if !strings.HasPrefix(lines[i], "GATE FAIL ") || !strings.Contains(lines[i], want) {
					t.Errorf("line %d = %q, want a GATE FAIL line containing %q", i, lines[i], want)
				}
			}
		})
	}
}
