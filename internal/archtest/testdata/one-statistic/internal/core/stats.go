package core

func (e *Engine) StartStatistics() { // want
	e.metrics.Gauge("graph.stats_age_ns").Set(0)     // want
	e.metrics.Counter("graph.stats_refreshes").Inc() // want
	e.metrics.Gauge("lock.wait_ns").Set(0)           // want
	e.stats = GraphStats{}                           // want
	e.RefreshStatistics()                            // want
	e.FreshStats()                                   // want
	e.InvalidateStats()                              // want
}
