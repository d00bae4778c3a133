package exec

import "grfusion/internal/graph"

func reach(g *graph.Graph, a, b int64) bool {
	if graph.Reachable(g, a, b) { // want
		return graph.NewBFS(g).Next() >= 0 // want
	}
	return graph.ShortestPath(g, a, b) != nil // want
}

func walk(g *graph.Graph) {
	_ = graph.NewDFS(g)                 // want
	_ = graph.NewShortest(g, 0)         // want
	_ = graph.RefPageRank(g, 0.85, 20)  // want
	_ = graph.RefConnectedComponents(g) // want
}
