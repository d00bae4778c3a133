package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

func TestMetricsHTTP(t *testing.T) {
	var resp *http.Response
	var out map[string]int64
	json.NewDecoder(resp.Body).Decode(&out)
}
