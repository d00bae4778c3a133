package server

import (
	"encoding/json"
	"net/http"
)

// The /metrics endpoint encodes JSON over HTTP: not a wire dialect.
func serveMetrics(w http.ResponseWriter, m map[string]int64) {
	json.NewEncoder(w).Encode(m)
}
