package main

import (
	"strings"
	"testing"

	"grfusion/internal/bench"
)

// TestGateFor pins the -baseline dispatch: every gated experiment gets its
// own checker, and anything else — ungated, removed, or unknown — is a
// usage error naming the gated set instead of some other experiment's gate.
func TestGateFor(t *testing.T) {
	for _, tc := range []struct {
		exp   string
		gated bool
	}{
		{"analytics", true},
		{"concurrency", true},
		{"wire", true},
		{"durability", false},
		{"observability", false},
		{"fig7", false},
		{"csr", false},
		{"all", false},
		{"", false},
	} {
		g, err := gateFor(tc.exp)
		if tc.gated {
			if err != nil || g == nil {
				t.Errorf("gateFor(%q) = (nil=%v, %v), want a gate", tc.exp, g == nil, err)
			}
			if _, ok := bench.Experiments[tc.exp]; !ok {
				t.Errorf("gated experiment %q is not registered", tc.exp)
			}
			continue
		}
		if err == nil || g != nil {
			t.Errorf("gateFor(%q) returned a gate, want a usage error", tc.exp)
			continue
		}
		for _, want := range []string{"analytics", "concurrency", "wire"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("gateFor(%q) error %q does not name gated experiment %s", tc.exp, err, want)
			}
		}
	}
}
