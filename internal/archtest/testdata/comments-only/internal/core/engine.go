package core

// commitLocked is the one write-commit body: e.walAppendLocked(rec) logs
// and e.finishWALLocked(lsn, err) settles. No reader takes sync.RWMutex's
// e.mu.RLock(), no e.ensurePrivateG(name) or sharedG copy, no
// StartStatistics/RefreshStatistics/FreshStats/InvalidateStats/GraphStats,
// no "graph.stats_age_ns", "stats_refreshes" or "lock.wait_ns", no
// gv.AttrValue(v, name), AttrSourcePos, HasVertexAttr, HasEdgeAttr or
// AttrKind(name); a *expr.Param switch lives in the parser; no
// FaultHook, CrashHook, CrashPoint, CrashFunc, WriteFileAtomicCrash or
// chaosInjector; graph.NewBFS(g), graph.Reachable, graph.RefPageRank;
// no import "encoding/gob" and no gob.NewEncoder(w).Encode(&db).
func (e *Engine) commitLocked(rec *Record) (err error) {
	/* e.walAppendLocked(rec) is called once, below. */
	lsn, err := e.walAppendLocked(rec)
	e.finishWALLocked(lsn, err) // not e.finishWALLocked(lsn, nil) twice
	return err
}
