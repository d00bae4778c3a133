package main

import (
	"encoding/json"
	"os"
)

func main() {
	var req struct{ Query string }
	json.NewDecoder(os.Stdin).Decode(&req) // want
}
