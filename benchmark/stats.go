package main

import (
	"sort"
	"time"
)

// subWindows is how many equal slices of the timed window a tail metric is
// taken over. The reported tail is the median of the slices' percentiles,
// which repeats far better on a shared two-core machine than one
// whole-window p99: a single stall lands in one slice, not in the result.
const subWindows = 10

// sample is one timed client operation.
type sample struct {
	kind uint8
	ok   bool
	at   int64 // ns from the start of the timed window to the op's start (its due time when paced)
	lat  int64 // ns from start (or due time) to the checked reply
}

// percentile returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowPercentile is the whole-window q-quantile of the samples' latency,
// in ns.
func windowPercentile(ss []sample, q float64) float64 {
	lat := make([]int64, len(ss))
	for i, s := range ss {
		lat[i] = s.lat
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, q))
}

// subWindowPercentile splits [0, window) into subWindows equal slices by
// each sample's start offset, takes the q-quantile of every non-empty
// slice, and returns the median of those, in ns.
func subWindowPercentile(ss []sample, window time.Duration, q float64) float64 {
	buckets := make([][]int64, subWindows)
	width := int64(window) / subWindows
	for _, s := range ss {
		b := int(s.at / width)
		if b < 0 {
			b = 0
		}
		if b >= subWindows {
			b = subWindows - 1
		}
		buckets[b] = append(buckets[b], s.lat)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		per = append(per, float64(percentile(b, q)))
	}
	return medianF(per)
}

// pacer is a fixed open-loop schedule: op i is due at start + i*interval,
// whether or not earlier ops have finished.
type pacer struct {
	start    time.Time
	interval time.Duration
	i        int
}

// next returns op i's due time and advances the schedule.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.interval)
	p.i++
	return due
}

// wait blocks until due and returns how late the generator was in sending:
// 0 when it slept until the due time, positive when the previous op overran.
func wait(due time.Time) (late time.Duration) {
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	if l := time.Since(due); l > 0 {
		return l
	}
	return 0
}
