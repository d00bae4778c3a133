package exec

func vertexAttr(v *graph.Vertex, gv *catalog.GraphViewAt, name string) types.Value {
	if !gv.HasVertexAttr(name) || !gv.HasEdgeAttr(name) { // want
		return types.Null
	}
	return gv.AttrValue(v, name) // want
}
