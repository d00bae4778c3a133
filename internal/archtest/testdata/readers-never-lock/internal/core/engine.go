package core

import "sync"

type Engine struct {
	mu sync.RWMutex // want
}

func (e *Engine) read() {
	e.mu.RLock() // want
	defer e.mu.RUnlock()
}
