package core

type RecoveryInfo struct {
	Replayed     int
	ReplayErrors int // want
}

func (e *Engine) finishWALLocked(lsn uint64, err error) {
	if err != nil {
		e.dur.log.RollbackLast(lsn)  // want
		e.metrics.WALRollbacks.Inc() // want
	}
}
