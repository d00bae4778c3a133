package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// client operation share op_id; parent is the id of the span that caused
// this one (0 for the root).
//
// The benchmark records spans from its own files: it cannot open a span
// inside the program. An op is therefore sent over the wire once (the root)
// and then replayed at successive depths on a twin engine, each replay
// timed as the child of the depth above. Children are real calls with real
// durations, but they run after their parent, not inside it; nesting is by
// the parent field, and self time is computed from durations.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	OpID   int              `json:"op_id"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, opID int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, OpID: opID, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// timed records fn as one span.
func (t *tracer) timed(parent, opID int, name string, fn func()) int {
	id := t.begin(parent, opID, name)
	fn()
	t.end(id)
	return id
}

// add records a span whose duration was measured elsewhere (time spent
// inside the recording filesystem during the parent call).
func (t *tracer) add(parent, opID int, name string, d time.Duration) int {
	id := t.begin(parent, opID, name)
	t.spans[id-1].End = t.spans[id-1].Start + int64(d)
	return id
}

func (t *tracer) count(id int, key string, n int64) {
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for each span, its duration minus what its direct
// children cover, never below zero (a child measured on a noisy replay can
// exceed the parent it explains).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			self[p-1] -= spans[i].dur()
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layers are the repository's packages, in the order a statement crosses
// them. faultfs is the device seam.
var layers = []string{"wire", "server", "sql", "plan", "exec", "graph", "catalog", "storage", "core", "wal", "faultfs"}

// layerOf maps a span name to its layer: the part before the first dot.
// The root span "op" is the wire round trip; what remains of it after the
// codec and the engine call are subtracted is the server's dispatch plus
// the loopback socket, and belongs to the server layer.
func layerOf(name string) string {
	if name == "op" {
		return "server"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerShares returns each layer's self time as a share of the summed root
// spans.
func layerShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	selfNS := map[string]int64{}
	var root int64
	for i, s := range spans {
		selfNS[layerOf(s.Name)] += self[i]
		if s.Parent == 0 {
			root += s.dur()
		}
	}
	share := map[string]float64{}
	if root > 0 {
		for l, ns := range selfNS {
			share[l] = float64(ns) / float64(root)
		}
	}
	return share
}
