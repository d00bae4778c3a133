GO ?= go

# The oracle's seed and the wall-clock budget of the oracle, recovery,
# WAL-replay and checkpoint-decode fuzz runs. CI passes its run id and a
# longer budget.
SEED ?= 42
BUDGET ?= 30s

.PHONY: all build test benchcheck benchsmoke race fuzz gate oracle chaos recover fmt fmtcheck vet clean

all: build test

build:
	$(GO) build ./...

# Every package's tests, the architecture rule table (internal/archtest)
# included.
test:
	$(GO) test ./...

# The nested benchmark module imports internal/core, server, wire and graph
# directly, and `./...` from the root does not descend into it: a refactor
# can break it with build and test green.
benchcheck:
	cd benchmark && $(GO) vet . && $(GO) test .

# One iteration of each in-process profiling benchmark: `go test ./...`
# never runs a benchmark body, so a broken one would otherwise go unseen.
benchsmoke:
	$(GO) test -run '^$$' -bench 'ShortestPathSPScan|PathScanReachabilityBFS|PathScanPushedFilter|PreparedAfterWrite|AnalyticsPageRank|AnalyticsDegree|PointUpdate|TopologyWrite' -benchtime 1x .

# The merge gate: every package under the race detector.
race:
	$(GO) test -race ./...

# Short fuzz smokes over the two parsers of outside input: the SQL parser
# and the wire frame decoder.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/sql
	$(GO) test -run='^$$' -fuzz=FuzzFrameDecode -fuzztime=30s ./internal/wire

# Differential/metamorphic correctness oracle: randomized graph-view
# workloads cross-checked against independent baselines, under the race
# detector. On a violation it writes ORACLE_repro.sql and prints a
# one-line seed repro.
oracle:
	$(GO) run -race ./cmd/grbench -experiment oracle -seed $(SEED) -duration $(BUDGET)

# Network-fault chaos soak: the server endures a 30s storm of injected
# delays, truncated writes, resets, accept errors, panics, and deadline
# aborts under the race detector.
chaos:
	GRF_SOAK=30 $(GO) test -race -v -run 'TestChaos' -timeout 8m ./internal/server

# Durability battery: the WAL and fault-injector tests; the focused
# recovery, checkpoint crash-window (a power cut at every op of one
# checkpoint), degraded-mode and health tests, the server's degraded-write
# and health-surface tests included; a 30s durability soak (one seeded
# faultfs under calm, EIO drizzle, outages and power cuts, each cycle
# killed or shut down and recovered against a non-durable reference); a
# WAL-replay and a checkpoint-decode fuzz budget; and the crash-recovery
# oracle. All of it runs under the race detector.
recover:
	$(GO) test -race -v ./internal/wal ./internal/faultfs
	GRF_SOAK=30 $(GO) test -race -v -timeout 8m \
		-run 'Recovery|Durab|Checkpoint|WAL|Replay|Alloc|UndoInsert|Snapshot|Degraded|DiskFull|Health' \
		./internal/core ./internal/storage
	$(GO) test -race -v -run 'TestDegradedWrite|TestHealthSurfaces' ./internal/server
	$(GO) test -race -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(BUDGET) ./internal/core
	$(GO) test -race -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(BUDGET) ./internal/core
	$(GO) run -race ./cmd/grbench -experiment recovery -seed $(SEED) -duration $(BUDGET)

# The claim gate: every experiment, then every row of the claim table in
# internal/bench/gate.go (the paper's shape claims plus the engine's ratio
# claims). Fails naming each violated row.
gate:
	$(GO) run ./cmd/grbench -exp all

fmt:
	gofmt -l -w .

# Fails listing every file gofmt would change.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f ORACLE_repro.sql
