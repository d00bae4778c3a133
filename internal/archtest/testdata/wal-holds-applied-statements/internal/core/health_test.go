package core

import "testing"

func TestHealthPairs(t *testing.T) {
	if rows := healthRows(t, New(Options{})); rows["wal_rollbacks"] != "0" { // want
		t.Fatal(rows)
	}
}
