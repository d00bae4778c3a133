package grfusion_test

import (
	"fmt"

	"grfusion"
)

// Example demonstrates the end-to-end flow: relational schema, graph
// view, and a cross-model query.
func Example() {
	db := grfusion.Open(grfusion.Config{})
	db.MustExec(`CREATE TABLE Users (uid BIGINT PRIMARY KEY, name VARCHAR)`)
	db.MustExec(`CREATE TABLE Friends (fid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	db.MustExec(`INSERT INTO Users VALUES (1,'ann'),(2,'bob'),(3,'cady')`)
	db.MustExec(`INSERT INTO Friends VALUES (1,1,2),(2,2,3)`)
	db.MustExec(`
		CREATE UNDIRECTED GRAPH VIEW Social
			VERTEXES(ID = uid, name = name) FROM Users
			EDGES(ID = fid, FROM = a, TO = b) FROM Friends`)

	res, _ := db.Query(`
		SELECT PS.EndVertex.name FROM Users U, Social.Paths PS
		WHERE U.name = 'ann' AND PS.StartVertex.Id = U.uid AND PS.Length = 2`)
	for _, row := range res.Rows {
		fmt.Println(row[0])
	}
	// Output: cady
}

// ExampleDB_Prepare shows VoltDB-style prepared execution: the plan is
// built once and executed with different parameters.
func ExampleDB_Prepare() {
	db := grfusion.Open(grfusion.Config{})
	db.MustExec(`CREATE TABLE N (nid BIGINT PRIMARY KEY)`)
	db.MustExec(`CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	db.MustExec(`INSERT INTO N VALUES (1),(2),(3),(4)`)
	db.MustExec(`INSERT INTO E VALUES (1,1,2),(2,2,3),(3,3,4)`)
	db.MustExec(`CREATE DIRECTED GRAPH VIEW G VERTEXES(ID=nid) FROM N
		EDGES(ID=eid, FROM=a, TO=b) FROM E`)

	reach, _ := db.Prepare(`
		SELECT PS.PathString FROM G.Paths PS
		WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1`)
	for _, dst := range []int{3, 4} {
		res, _ := reach.Query(1, dst)
		fmt.Println(res.Rows[0][0])
	}
	// Output:
	// 1-[1]->2-[2]->3
	// 1-[1]->2-[2]->3-[3]->4
}

// ExampleDB_Explain renders the cross-model query execution pipeline.
func ExampleDB_Explain() {
	db := grfusion.Open(grfusion.Config{})
	db.MustExec(`CREATE TABLE N (nid BIGINT PRIMARY KEY)`)
	db.MustExec(`CREATE TABLE E (eid BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	db.MustExec(`INSERT INTO N VALUES (1),(2)`)
	db.MustExec(`INSERT INTO E VALUES (1,1,2)`)
	db.MustExec(`CREATE DIRECTED GRAPH VIEW G VERTEXES(ID=nid) FROM N
		EDGES(ID=eid, FROM=a, TO=b) FROM E`)
	plan, _ := db.Explain(`SELECT PS.PathString FROM G.Paths PS
		WHERE PS.StartVertex.Id = 1 AND PS.Length = 1`)
	fmt.Print(plan)
	// Output:
	// Project PS.PathString
	//   PathScan[DFScan] G len=[1,1] start=1
	//     Singleton
}
