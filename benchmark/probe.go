package main

import "grfusion/internal/types"

// layerProbe tells the traced run how to repeat an op's work against
// single layers: which graph kernel over which endpoints, or which storage
// call on which key. The untraced run ignores it.
type layerProbe struct {
	kernel   kernelKind
	src, dst int32 // kernelJoin: src is the vertex group
	maxLen   int
	selBelow int32 // edges with sel >= selBelow are filtered out (100 = none)

	rel   relKind
	table string
	key   int64     // primary key, or the indexed value for relIndex and relRange
	col   int       // relIndex, relRange: position of the indexed column
	row   types.Row // relInsert: the row
}

type kernelKind uint8

const (
	kernelNone kernelKind = iota
	kernelReach
	kernelEnum
	kernelShortest
	kernelJoin
	kernelPageRank
)

type relKind uint8

const (
	relNone relKind = iota
	relPK
	relIndex
	relRange
	relInsert
	relUpdate
	relDelete
)
