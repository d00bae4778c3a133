package plan

func (p *Planner) pinView(gv *catalog.GraphView) *catalog.GraphViewAt { // want
	return gv.Live() // want
}

func (p *Planner) scan(t *storage.Table,
	pin exec.Pin) { // want
	p.rows = pin.Table(t).(storage.RowView) // want
}

func (fi *fromItem) snap() *storage.TableSnap { return nil } // want
