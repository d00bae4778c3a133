package plan

func (p *Planner) pinView(gv *catalog.GraphView) *catalog.GraphViewAt { // want
	if p.Pin == nil { // want
		return nil
	}
	return p.Pin.GraphView(gv)
}

func (fi *fromItem) bound() bool { return fi.at != nil } // want

func (p *Planner) scan(t *Table) { p.pinRows(t) } // want
