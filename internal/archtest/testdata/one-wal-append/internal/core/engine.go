package core

func (e *Engine) commitLocked(rec *Record) error {
	_, err := e.walAppendLocked(rec) // want
	return err
}

func (e *Engine) bulkLocked(rec *Record) error {
	_, err := e.walAppendLocked(rec) // want
	return err
}
