package server

import (
	"bufio"
	"encoding/json"
	"net"
)

type Request struct{ Query string }

func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader) { // want
	var req Request
	json.Unmarshal(nil, &req) // want
}
