package main

func pointLookup(t *storage.Table, col int) *storage.Index {
	ix, _ := t.FindIndexOn([]int{col}, false) // want
	return ix
}
