package catalog

func (gv *GraphView) Publish() *graph.CSRSnapshot { // want
	gv.g.MarkShared() // want
	return gv.csr
}
