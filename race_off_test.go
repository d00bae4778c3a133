//go:build !race

package grfusion

const raceEnabled = false
