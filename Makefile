GO ?= go

.PHONY: all build test benchcheck race fuzz gate oracle chaos recover fmt vet clean

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

# Durability battery: the WAL and fault-injector tests; the focused
# recovery, checkpoint crash-window (a power cut at every op of one
# checkpoint), degraded-mode and health tests, the server's degraded-write
# and health-surface tests included; a 30s durability soak (one seeded
# faultfs under calm, EIO drizzle, outages and power cuts, each cycle
# killed or shut down and recovered against a non-durable reference); a
# WAL-replay fuzz budget; and the crash-recovery oracle. CI's recovery job
# runs the same battery with 90s fuzz and oracle budgets.
recover:
	$(GO) test -race -v ./internal/wal ./internal/faultfs
	GRF_SOAK=30 $(GO) test -race -v -timeout 8m \
		-run 'Recovery|Durab|Checkpoint|WAL|Replay|Alloc|UndoInsert|Snapshot|Degraded|DiskFull|Health' \
		./internal/core ./internal/storage
	$(GO) test -race -v -run 'TestDegradedWrite|TestHealthSurfaces' ./internal/server
	$(GO) test -race -run='^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./internal/core
	$(GO) run ./cmd/grbench -experiment recovery -seed 42 -duration 30s

# The claim gate: every experiment, then every row of the claim table in
# internal/bench/gate.go (the paper's shape claims plus the engine's ratio
# claims). Fails naming each violated row.
gate:
	$(GO) run ./cmd/grbench -exp all

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
	rm -f ORACLE_repro.sql
