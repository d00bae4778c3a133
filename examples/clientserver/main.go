// Client/server deployment: the paper's host system (VoltDB) is a
// client/server database. This example starts a GRFusion server on an
// ephemeral port, connects a client over TCP, builds a small knowledge
// graph, and runs graph-relational queries across the wire.
package main

import (
	"fmt"
	"log"
	"net"

	"grfusion/internal/core"
	"grfusion/internal/server"
)

func main() {
	// Server side: an engine behind a TCP listener.
	eng := core.New(core.Options{})
	srv := server.New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown()
	fmt.Println("server listening on", ln.Addr())

	// Client side: TCP, CRC-checked binary frames.
	c, err := server.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	statements := []string{
		`CREATE TABLE Concepts (cid BIGINT PRIMARY KEY, name VARCHAR, kind VARCHAR)`,
		`CREATE TABLE Links (lid BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, rel VARCHAR)`,
		`INSERT INTO Concepts VALUES
			(1,'golang','language'), (2,'compiler','tool'), (3,'gc','component'),
			(4,'runtime','component'), (5,'goroutine','concept'), (6,'channel','concept')`,
		`INSERT INTO Links VALUES
			(1,1,2,'builtWith'), (2,1,4,'ships'), (3,4,3,'contains'),
			(4,4,5,'schedules'), (5,5,6,'communicatesVia')`,
		`CREATE DIRECTED GRAPH VIEW Knowledge
			VERTEXES(ID = cid, name = name, kind = kind) FROM Concepts
			EDGES(ID = lid, FROM = src, TO = dst, rel = rel) FROM Links`,
	}
	for _, q := range statements {
		if _, err := c.Exec(q); err != nil {
			log.Fatalf("%s: %v", q, err)
		}
	}

	// What is transitively connected to golang, and through what chain?
	res, err := c.Exec(`
		SELECT PS.EndVertex.name, PS.Length, PS.PathString
		FROM Concepts C, Knowledge.Paths PS
		WHERE C.name = 'golang' AND PS.StartVertex.Id = C.cid
		ORDER BY PS.Length, PS.EndVertex.name`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconcepts reachable from 'golang':")
	for _, row := range res.Rows {
		fmt.Printf("  %-10s (%s hop(s))  %s\n", row[0], row[1], row[2])
	}

	// Relationship-typed traversal, still over the wire.
	res, err = c.Exec(`
		SELECT PS.EndVertex.name FROM Knowledge.Paths PS
		WHERE PS.StartVertex.Id = 1
		  AND PS.Edges[0..*].rel IN ('ships', 'schedules', 'communicatesVia')
		ORDER BY PS.EndVertex.name`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfollowing only runtime relationships:")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0])
	}
}
