package main

// No -stats flag sets Config.StatsInterval and nothing calls
// db.ForceTraversal(kind); no chaosInjector; no BENCH_wire.json.
func main() {}
