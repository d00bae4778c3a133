package core

func (e *Engine) commitLocked(lsn uint64, err error) {
	e.finishWALLocked(lsn, err) // want
}

func (e *Engine) copyLocked(lsn uint64, err error) {
	e.finishWALLocked(lsn, err) // want
}
