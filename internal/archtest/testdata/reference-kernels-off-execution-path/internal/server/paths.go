package server

import "grfusion/internal/graph"

var reachable = graph.Reachable // want
