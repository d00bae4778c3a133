package plan

// A plan holds no version: no Pin, no GraphViewAt, RowView or TableSnap,
// no Live binding, no pinRows or pinView. t.FindIndexOn(cols, false) is called once, below.
func (p *Planner) choose(t *Table, cols []int) *Index {
	ix, _ := t.FindIndexOn(cols, false) // the one caller; not t.FindIndexOn(cols, true)
	return ix
}
