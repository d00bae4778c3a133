package core

import (
	"encoding/gob"
	"testing"
)

func TestRejectsGob(t *testing.T) { _ = gob.NewEncoder }
