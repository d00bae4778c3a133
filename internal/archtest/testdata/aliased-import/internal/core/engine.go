package core

import (
	ex "grfusion/internal/expr"
	gosync "sync"
)

type Engine struct {
	mu gosync.RWMutex // want
}

func isParam(e ex.Expr) bool {
	_, ok := e.(*ex.Param) // want
	return ok
}
