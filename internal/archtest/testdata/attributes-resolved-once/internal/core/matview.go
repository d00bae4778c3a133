package core

func pos(gv *catalog.GraphView, name string) int { return gv.AttrSourcePos(name) } // want
