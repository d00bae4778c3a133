package expr

func kind(gv GraphView, name string) types.Kind { return gv.AttrKind(name) } // want
