# Development targets. `make verify` is the pre-commit gate: it must
# pass before any change lands.

GO ?= go

.PHONY: all build test bench lint verify fuzz chaos sweep serve load sample-validate cluster cluster-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench: run the suite — including the one-pass screening pair
# (BenchmarkOnePassGrid vs BenchmarkExactGridConfigByConfig) and the
# per-layer benchmarks (workload recording of the scale-1 suite and a
# cold capped run's recording, trace
# Pack, Batch decode and SkipScan, MMU translation, core StepBatch,
# StepScan and WarmScan, stackdist Analyze per served class set,
# sampled simulation's skip, warm and measure phases, report JSON
# encoding, store Get/Put per fsync policy,
# the service's request keying (strict path and memo) and loopback hit
# per tier, the fabric's coordinator-tier hit and forward hop) — and
# keep a machine-readable
# log of the results (name -> ns/op + reported metrics, plus the host's
# GOMAXPROCS, CPU count and Go version), stamped with the commit it measured ("-dirty" when the tree
# had uncommitted changes), next to the console output. The log is named
# BENCH_<date>-<commit>.json, so each commit gets its own; benchjson
# refuses to replace an existing log, so a second run of one commit on
# one date fails before it starts. Gate a change with:
#   go run ./cmd/benchjson -compare BENCH_<old>.json BENCH_<new>.json
bench:
	sha="$$(git describe --always --dirty 2>/dev/null || echo unknown)"; \
	$(GO) test -run='^$$' -bench=. -benchmem . ./internal/workload ./internal/trace ./internal/mmu ./internal/core ./internal/stackdist ./internal/sample ./internal/report ./internal/store ./internal/service ./internal/fabric | $(GO) run ./cmd/benchjson \
		-sha "$$sha" -o "BENCH_$$(date +%Y-%m-%d)-$$sha.json"

# lint: the repo-specific cachelint suite (internal/lint): nopanic,
# errwrap, determinism, exhaustive, statscoverage. Non-zero exit on any
# finding; see README.md for the //lint:allow escape hatch.
lint:
	$(GO) run ./cmd/cachelint ./...

# verify: static checks (vet + cachelint), a full build, the test suite
# under the race detector, vet and tests of the nested perfbench module
# (root ./... skips it, so an API change it depends on would otherwise
# go unnoticed), and short fuzz smokes over the trace-file reader, the
# packed trace format, recordings that grow on demand against drained
# ones, screening against the exact simulator, the
# scheduler against its per-event reference, the request-key memo
# against the strict keying path, and functional warming against the
# exact simulator's cache state.
#
# -timeout 20m: go test's default per-package limit, 10 minutes, is too
# short under -race, where internal/experiments alone took 559-699 s on
# a 2-vCPU VM. 20 minutes leaves headroom and stays below the CI jobs'
# timeout-minutes, so go test's own timeout, which names the stuck test,
# fires first.
verify: lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -timeout 20m ./...
	GOFLAGS=-mod=mod GOWORK=off $(GO) -C perfbench vet ./...
	GOFLAGS=-mod=mod GOWORK=off $(GO) -C perfbench test ./...
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzPackedRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzGrowMatchesPack -fuzztime=10s ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzScreeningMatchesExact -fuzztime=10s ./internal/stackdist
	$(GO) test -run=^$$ -fuzz=FuzzRunMatchesReference -fuzztime=10s ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzKeyBodyMatchesDirect -fuzztime=10s ./internal/service
	$(GO) test -run=^$$ -fuzz=FuzzWarmMatchesExact -fuzztime=10s ./internal/core

# fuzz: longer runs of the tape reader and of warming against exact.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=5m ./internal/trace
	$(GO) test -run=^$$ -fuzz=FuzzWarmMatchesExact -fuzztime=5m ./internal/core

# chaos: the fault-injection and durability suite under the race
# detector — torn-write/corruption recovery in the store, the
# fault-injected filesystem scenarios, breaker/retry behavior, and the
# kill-the-daemon-mid-write end-to-end test. Plus a fuzz smoke over the
# store's record decoder and segment recovery.
chaos:
	$(GO) test -race -run '(Chaos|Crash|Fault|Torn|Corrupt|Recover|Breaker|Retry|Drain)' \
		./internal/store ./internal/faultinject ./internal/client ./internal/service ./cmd/cachesimd
	$(GO) test -run=^$$ -fuzz=FuzzStoreRead -fuzztime=10s ./internal/store

# sample-validate: the sampled-fidelity accuracy gate — sampled CPI and
# miss ratios against exact runs of the same recordings at the bounds
# DESIGN.md §12 documents, byte-identical rerun determinism, and the
# warm fast-forward state-equivalence suite it all rests on (WarmScan
# against the exact path, and a warm-mode Runner against skip mode's
# schedule and the exact run's cache state).
sample-validate:
	$(GO) test -run 'TestSampled|TestWarm|TestRunnerWarmMatchesSkip|TestRunnerWarmMatchesExactFingerprint|TestSkipScan' \
		./internal/sample ./internal/core ./internal/sched ./internal/trace ./internal/experiments

# sweep: regenerate every table and figure, fault-tolerantly.
sweep:
	$(GO) run ./cmd/sweep -exp all -jobs 4 -keep-going -manifest sweep-manifest.json

# serve: run the result-caching simulation daemon (see README "Serving").
serve:
	$(GO) run ./cmd/cachesimd -addr localhost:8344

# load: drive a running daemon with a zipf-skewed request mix and
# report latency split by cache outcome (start `make serve` first).
load:
	$(GO) run ./cmd/simload -addr localhost:8344 -c 8 -duration 20s

# cluster: a local distributed fabric — cachesim-coord on :8355 plus
# two cachesimd workers that register with it over heartbeats. Ctrl-C
# stops all three. Drive it with
#   go run ./cmd/simload -addr localhost:8355 -c 8 -duration 20s
# (the coordinator speaks the same /v1 surface as a single daemon; the
# load report then attributes traffic per worker), or curl
# localhost:8355/v1/cluster for ring state. See README "Clustering".
cluster:
	@mkdir -p .build
	$(GO) build -o .build/cachesim-coord ./cmd/cachesim-coord
	$(GO) build -o .build/cachesimd ./cmd/cachesimd
	@.build/cachesim-coord -addr localhost:8355 & C=$$!; \
	.build/cachesimd -addr localhost:8344 -coordinator http://localhost:8355 -worker-id w1 & W1=$$!; \
	.build/cachesimd -addr localhost:8345 -coordinator http://localhost:8355 -worker-id w2 & W2=$$!; \
	trap "kill $$C $$W1 $$W2 2>/dev/null" INT TERM EXIT; \
	wait

# cluster-smoke: the distributed-fabric gate. The race-detected unit
# and end-to-end suites (ring key-movement bounds, hedged failover,
# coordinator-vs-direct byte identity, cluster-wide second-request
# cache hit, SIGKILL-a-worker graceful degradation), then a live
# coordinator + 2 workers on loopback briefly under simload.
cluster-smoke:
	$(GO) test -race ./internal/fabric
	$(GO) test -race -run 'TestCluster|TestCoordinator' ./cmd/cachesim-coord
	@mkdir -p .build
	$(GO) build -o .build/cachesim-coord ./cmd/cachesim-coord
	$(GO) build -o .build/cachesimd ./cmd/cachesimd
	$(GO) build -o .build/simload ./cmd/simload
	@set -e; \
	.build/cachesim-coord -addr localhost:18355 -heartbeat-ttl 2s & C=$$!; \
	.build/cachesimd -addr localhost:18344 -coordinator http://localhost:18355 -worker-id w1 -heartbeat-interval 500ms & W1=$$!; \
	.build/cachesimd -addr localhost:18345 -coordinator http://localhost:18355 -worker-id w2 -heartbeat-interval 500ms & W2=$$!; \
	trap "kill $$C $$W1 $$W2 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
		curl -fsS localhost:18355/readyz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	.build/simload -addr localhost:18355 -c 4 -duration 5s -max 50000; \
	echo; curl -fsS localhost:18355/v1/cluster
