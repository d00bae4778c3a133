package catalog

import "grfusion/internal/graph"

// GraphView holds a *graph.Graph only to rebuild it: never gv.g.Clone(),
// MarkShared, CSRSnapshot; see BENCH_traversal.json (deleted).
type GraphView struct {
	g *graph.Graph // not g.Clone()
}
