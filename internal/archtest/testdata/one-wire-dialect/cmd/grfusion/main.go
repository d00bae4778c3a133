package main

import "grfusion/internal/server"

func main() {
	server.DialWith("127.0.0.1:21212", server.Options{Protocol: server.ProtoJSON}) // want
}
