package server

import "encoding/json"

// No serveJSON loop calls json.Unmarshal or json.NewDecoder, and no
// client selects ProtoJSON or ProtoAuto: only /metrics encodes JSON.
var _ = json.NewEncoder
