package exec

import g "grfusion/internal/graph"

func reach(gr *g.Graph, a, b int64) bool {
	return g.NewBFS(gr).Reachable(a, b) // want
}
