package core

import "testing"

func TestCrash(t *testing.T) {
	e := New(Options{CrashPoint: "checkpoint.rename"}) // want
	_ = e
}
