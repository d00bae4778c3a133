package wal

type Options struct {
	OnRollback func() // want
}

// RollbackLast in a comment never matches.
func (l *Log) RollbackLast(lsn uint64) error { return nil } // want
