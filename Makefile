GO ?= go

.PHONY: all build test benchcheck race fuzz bench metrics analytics mvcc wire oracle chaos diskchaos recover durbench fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The nested benchmark module imports internal/core, server, wire and graph
# directly, and `./...` from the root does not descend into it: a refactor
# can break it with build and test green.
benchcheck:
	cd benchmark && $(GO) vet . && $(GO) test .

# The merge gate: every package under the race detector.
race:
	$(GO) test -race ./...

# Short fuzz smoke over the SQL parser (CI runs the same budget).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/sql

# Differential/metamorphic correctness oracle: randomized graph-view
# workloads cross-checked against independent baselines. On a violation it
# writes ORACLE_repro.sql and prints a one-line seed repro. CI runs the
# same harness under -race with a wall-clock budget.
oracle:
	$(GO) run ./cmd/grbench -experiment oracle -seed 42 -duration 30s

# Network-fault chaos soak: the server endures a 30s storm of injected
# delays, truncated writes, resets, accept errors, panics, and deadline
# aborts under the race detector. CI runs the same budget.
chaos:
	GRF_SOAK=30 $(GO) test -race -v -run 'TestChaos' -timeout 8m ./internal/server

# Disk-fault chaos soak: a durable engine endures a 30s seeded storm of
# injected WAL write/sync/truncate failures and disk-full windows,
# degrading to read-only and self-healing each cycle, with reads checked
# differentially against a non-durable reference and a kill-and-recover
# finale — under the race detector. The degraded-write retry-policy and
# health-surface agreement tests ride along. CI runs the same budget.
diskchaos:
	GRF_SOAK=30 $(GO) test -race -v -timeout 8m \
		-run 'TestDiskFault|TestDegradedMode|TestDiskFull|TestDegradedWrite|TestHealthSurfaces' \
		./internal/core ./internal/server

# Kill-and-recover battery: the focused durability/recovery tests, a 20s
# kill-and-recover chaos soak (injected WAL faults, checkpoint crash
# windows, torn tails, differential against a non-durable reference), a
# WAL-replay fuzz budget, and the crash-recovery oracle. CI's recovery job
# runs the same battery.
recover:
	$(GO) test -race -v ./internal/wal
	GRF_SOAK=20 $(GO) test -race -v -timeout 8m \
		-run 'Recovery|Durab|Checkpoint|WAL|Replay|Alloc|UndoInsert|Snapshot' \
		./internal/core ./internal/storage
	$(GO) test -race -run='^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./internal/core
	$(GO) run ./cmd/grbench -experiment recovery -seed 42 -duration 30s

# Durability cost: per-insert WAL append overhead per fsync policy against
# a no-WAL baseline, plus replay and checkpoint timings. CI uploads
# BENCH_durability.json on every run.
durbench:
	$(GO) run ./cmd/grbench -exp durability -json BENCH_durability.json

# Sequential-vs-parallel traversal timings plus the MVCC mixed-workload
# storm; emits the perf-trajectory artifact CI uploads on every run and
# gates it against the committed baseline (see `make mvcc`).
bench:
	$(GO) run ./cmd/grbench -exp concurrency -queries 5 -json BENCH_concurrency.json -baseline BENCH_concurrency_baseline.json
	$(GO) run ./cmd/grbench -exp wire -json BENCH_wire.json -baseline BENCH_wire_baseline.json

# MVCC storm lane: the stalled-reader/deadline regression tests and the
# versioned-read battery under the race detector, the race-gated
# mixed-workload storm (readers + analytics TVFs vs a sustained DML
# writer), then the concurrency benchmark with its regression gate — the
# run fails if read p99 under the write storm leaves 2x of the no-writer
# baseline or regresses past the committed BENCH_concurrency_baseline.json
# floor.
mvcc:
	$(GO) test -race -v -timeout 8m \
		-run 'TestStalledReader|TestExpiredReader|TestVersioned|TestPreparedReplans|TestReadOnlyDispatch|TestMVCC|TestVersionRegistry|TestConcurrent' \
		./internal/core
	$(GO) test -race -v -timeout 8m -run 'TestMVCCStorm' ./internal/bench
	$(GO) run ./cmd/grbench -exp concurrency -queries 5 -json BENCH_concurrency.json -baseline BENCH_concurrency_baseline.json

# Wire-protocol lane: the negotiation matrix, pipelining, prepared-over-
# wire, COPY ingest, pool, and frame-corruption tests under the race
# detector, then the wire benchmark with its regression gate — the run
# fails if pipelined point-query throughput drops under 3x the JSON
# round-trip rate, if COPY ingest drops under 20x per-statement inserts
# or under the committed absolute floor (halved on a one-core host), or
# if either ratio collapses vs BENCH_wire_baseline.json.
wire:
	$(GO) test -race -v -timeout 8m \
		-run 'TestNegotiation|TestClientOneWrite|TestPipeline|TestPrepared|TestCopyIn|TestOversizedFrame|TestFramedTraffic|TestPool' \
		./internal/server ./internal/wire
	$(GO) run ./cmd/grbench -exp wire -json BENCH_wire.json -baseline BENCH_wire_baseline.json

# Observability overhead: proves the metrics layer is free when idle and
# that armed slow-query instrumentation stays within a few percent on real
# traversal statements. CI uploads the artifact on every run.
metrics:
	$(GO) run ./cmd/grbench -exp observability -queries 10 -json BENCH_observability.json

# Whole-graph analytics benchmark + regression gate: naive single-threaded
# references vs the CSR kernels behind the PAGERANK / CONNECTED_COMPONENTS
# / LABEL_PROPAGATION / DEGREE_CENTRALITY table-valued functions. Fails if
# any gated speedup drops more than 10% below the committed baseline
# floor, or if a steady-state components/degree run allocates. CI uploads
# BENCH_analytics.json on every run.
analytics:
	$(GO) run ./cmd/grbench -exp analytics -queries 6 -json BENCH_analytics.json -baseline BENCH_analytics_baseline.json

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f BENCH_concurrency.json BENCH_observability.json BENCH_analytics.json BENCH_wire.json ORACLE_repro.sql
