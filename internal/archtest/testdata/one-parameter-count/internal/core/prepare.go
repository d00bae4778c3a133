package core

import "grfusion/internal/expr"

func countParams(e expr.Expr) int {
	n := 0
	expr.Walk(e, func(x expr.Expr) bool {
		switch p := x.(type) {
		case *expr.Param: // want
			if p.Idx+1 > n {
				n = p.Idx + 1
			}
		}
		return true
	})
	return n
}
