package bench

const baselineFile = "BENCH_traversal.json" // want
