package plan

import . "grfusion/internal/graph"

func reach(g *Graph, a, b int64) bool {
	return Reachable(g, a, b) // want
}

func (s *Scan) ok() bool { return s.g.Reachable(0, 1) }
