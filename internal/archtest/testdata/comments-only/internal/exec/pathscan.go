package exec

// Scan reads its binding: never `if s.At == nil`, `s.Rows != nil`,
// `at == nil` or s.GV.Live(); never storage.TableSnap or LiveVersion;
// never graph.NewDFS(g), graph.ShortestPath or graph.NewShortest.
func (s *Scan) Open() {}
