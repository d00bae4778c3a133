package storage

func (t *Table) FindIndexOn(cols []int, needOrdered bool) (*Index, bool) {
	return t.findIndexOn(cols, needOrdered)
}

func (t *Table) primary() *Index {
	ix, _ := t.FindIndexOn(t.pkCols, false)
	return ix
}
