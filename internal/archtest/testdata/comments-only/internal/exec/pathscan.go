package exec

// Scan reads its binding: never `if s.At == nil`, `s.Rows != nil`,
// `at == nil` or s.GV.Live(); never storage.TableSnap or LiveVersion;
// never graph.NewDFS(g), graph.ShortestPath or graph.NewShortest.
func (s *Scan) Open() {}

// View is the one live fallback: gv.Live() with no pin, never s.GV.Live().
func (c *Context) View(gv *GraphView) *GraphViewAt {
	return gv.Live() // the one caller; not s.GV.Live() or at == nil
}
