package server

import (
	"bufio"
	codec "encoding/json"
)

const (
	ProtoAuto   = "auto" // want
	ProtoBinary = "binary"
	ProtoJSON   = "json" // want
)

func useJSON(br *bufio.Reader) *codec.Decoder {
	return codec.NewDecoder(br) // want
}
