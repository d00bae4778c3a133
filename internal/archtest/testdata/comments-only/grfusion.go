// Package grfusion has no ForceTraversal and no StatsInterval.
package grfusion
