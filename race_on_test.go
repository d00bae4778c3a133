//go:build race

package grfusion

// raceEnabled reports whether the race detector instruments this build.
// sync.Pool deliberately drops items under -race, so allocation-count
// guards are meaningless there.
const raceEnabled = true
