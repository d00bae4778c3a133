package wal

type Log struct {
	FaultHook func(op string) error // want
	CrashHook func()                // want
}

func WriteFileAtomicCrash(path string, data []byte, crash CrashFunc) error { return nil } // want
