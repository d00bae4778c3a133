package plan

// Planner carries a Pin: no `p.Pin == nil`, no `fi.at != nil`, no pinRows
// or pinView. t.FindIndexOn(cols, false) is called once, below.
func (p *Planner) choose(t *Table, cols []int) *Index {
	ix, _ := t.FindIndexOn(cols, false) // the one caller; not t.FindIndexOn(cols, true)
	return ix
}
