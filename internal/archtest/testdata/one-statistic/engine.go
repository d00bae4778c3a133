package grfusion

func (db *DB) ForceTraversal(kind int) { db.e.ForceTraversal(kind) } // want
