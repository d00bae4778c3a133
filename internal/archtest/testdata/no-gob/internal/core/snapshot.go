package core

import (
	"encoding/gob" // want
	"io"
)

func (e *Engine) Snapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e.db)
}

// gobName is a string, not an import.
const gobName = "encoding/gob"
