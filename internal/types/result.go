package types

// Result is the outcome of one statement, the one shape every surface
// hands back: the engine's, the wire codec's MsgResult payload, the
// server client's and the embedded API's results are all this type.
type Result struct {
	// Columns names the result columns of a query (nil for DDL/DML).
	Columns []string
	// Rows holds query output.
	Rows []Row
	// Affected counts rows touched by DML.
	Affected int
}
