package exec

func (s *PathScan) view() *catalog.GraphViewAt {
	if s.At == nil { // want
		return s.GV.Live() // want
	}
	return s.At
}

func (s *ElemScan) rows() RowView {
	if s.Rows != nil { // want
		return s.Rows
	}
	if s.src.Rows == nil || s.At != nil { // want
		return nil
	}
	return nil
}

func bind(at *catalog.GraphViewAt) bool { return at == nil } // want

func (s *ElemScan) started() bool { return s.startAt == nil } // want
