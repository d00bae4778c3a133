package catalog

import "grfusion/internal/graph"

type GraphView struct {
	g *graph.Graph
}

func (gv *GraphView) private() *graph.Graph {
	return gv.g.Clone() // want
}
