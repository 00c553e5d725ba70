# Single source of truth for the commands CI and humans run.
# `make help` lists the targets.

GO ?= go

# Coverage floor (percent) enforced on every package under internal/.
COVER_FLOOR ?= 60
COVER_PKGS ?= $(shell $(GO) list ./internal/...)

# The micro-benchmarks `make bench-sweep` prints for benchstat: the
# Q12/Q13 serving sweeps (cached, and uncached: a window search every
# sweep), the cold (uncached)
# window searches the incremental shared-Gram solver owns and the
# served-shape one (constant table-size columns, R² bar 0.8), the pooled
# serving hot path, ServeServedCold (the `solo` workload's request
# in-process: a server.New tenant of Q12, each request leading its own
# sweep under a fresh cancellable context), the full PlanSweep over wide lattices up to the
# Example 3.1 size (its candidates/op is how many cost vectors the
# Pareto reduction examined: the lattice's row ends, or every plan when
# the fit's node coefficients disagree in sign), SweepRound (one whole
# 2,048-plan serving cycle: sweep, decide with its window search,
# release), HistoryPage (one
# 50-observation GET /v1/history page through the handler),
# internal/moo's ParetoFront shapes and internal/histstore's Recovery
# (one shard's WAL replayed into its history, unbounded and retained). Nothing gates on them: CI's
# regression gate is `bench -compare` over bench/ against
# BENCHMARK.json's bounds, and allocation budgets are ordinary tests
# (TestServeSubmitAllocBudget; TestPlanSweepAllocBudget for a serving
# cycle that releases its sweep and a library sweep that keeps it;
# TestHistoryPageAllocBudget). The fsync-bound ServeDurable and
# WALAppendDurable benchmarks are left out — fsync latency is hardware
# noise.
SWEEP_PATTERN ?= Q1[23]Sweep|WindowSearch(Cold|Served)|DREAMEstimateUncached|ServeHotPath|ServeServedCold|HistoryPage|PlanSweep|SweepRound|ParetoFront|RouteLookup|Recovery
SWEEP_COUNT ?= 5

# The control-plane tests `make test-cluster` repeats under -race.
CLUSTER_PATTERN ?= Cluster|Chaos|Failover|Stream|Handoff|Adopt|Readyz|Durable|Drain

# Where the `make profile-*` targets drop their profiles.
PROFILE_DIR ?= profiles

.PHONY: all build vet fmt-check lint loc linkcheck test test-cpus test-cluster test-allocs test-short test-bench fuzz-smoke bench bench-smoke bench-sweep bench-boot bench-json layers scenarios profile-sweep profile-cluster profile-serve profile-boot cover help

all: build lint test test-bench

## build: compile every package
build:
	$(GO) build ./...

## vet: run go vet over the module
vet:
	$(GO) vet ./...

## fmt-check: fail if any file needs gofmt
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## lint: vet + gofmt check
lint: vet fmt-check

## loc: non-test Go lines per package and in total, over every non-test .go file outside bench/, plus the control plane's subtotal (server/{cluster,control,failover,replstream}.go and internal/cluster)
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { dir = $$2; sub(/\/[^\/]*$$/, "", dir); lines[dir] += $$1; sum += $$1; if ($$2 ~ /^[.]\/internal\/(server\/(cluster|control|failover|replstream)[.]go|cluster\/)/) plane += $$1 } \
			END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d  control plane\n%7d  total\n", plane, sum }'

## linkcheck: validate markdown cross-links and anchors (offline, no external URLs)
linkcheck:
	$(GO) run ./cmd/linkcheck README.md DESIGN.md docs

## test: full test suite with the race detector
test:
	$(GO) test -race ./...

## test-cpus: the estimation and serving cores and the Pareto reduction under the race detector at GOMAXPROCS 1, 2 and 4 — "byte-identical at any GOMAXPROCS" is the determinism contract
test-cpus:
	$(GO) test -race -cpu 1,2,4 ./internal/core ./internal/ires ./internal/server ./internal/moo

## test-cluster: the control-plane tests (ownership moves, chaos, failover, replication streams, drain) and all of internal/cluster (the detector's and the replicator's goroutines) under the race detector, five passes — their interleavings differ run to run
test-cluster:
	$(GO) test -race -count=5 -run '$(CLUSTER_PATTERN)' ./internal/server
	$(GO) test -race -count=5 ./internal/cluster

## test-allocs: the allocation budgets (AllocBudget, DoesNotAllocate and ZeroAllocs tests) without the race detector — under it sync.Pool drops entries at random, so those tests skip and every other target runs them there
test-allocs:
	$(GO) test -run 'AllocBudget|DoesNotAllocate|ZeroAllocs' ./...

## test-short: quick feedback loop without the race detector
test-short:
	$(GO) test ./...

## test-bench: vet + test the bench/ module — it imports histstore, cluster, metrics and server but is invisible to ./...
test-bench:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## fuzz-smoke: run each fuzz target the recipe lists (package:target:time), one after another
fuzz-smoke:
	@set -e; for entry in \
		framelog:FuzzScan:20s \
		moo:FuzzParetoFront:10s \
		ires:FuzzLinearScoring:10s \
		ires:FuzzLinearFront:10s \
		federation:FuzzCostUnder:10s \
		histstore:FuzzReplay:10s \
		server:FuzzDecodeRequest:10s \
		server:FuzzReplicateStream:10s \
		server:FuzzHistoryPage:10s \
		server:FuzzSubmitResponse:10s \
		cluster:FuzzAdopt:10s; do \
		set -- $$(echo $$entry | tr : ' '); \
		echo "fuzz-smoke: $$2 in internal/$$1 for $$3"; \
		$(GO) test -run '^$$' -fuzz=$$2 -fuzztime=$$3 ./internal/$$1; \
	done

## bench: run every benchmark properly (slow)
bench:
	$(GO) test -run '^$$' -bench . ./...

## bench-smoke: one iteration of every benchmark — proves bench code builds and runs
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

## bench-sweep: repeated runs of the sweep, cold-search and WAL-replay micro-benchmarks, for benchstat
bench-sweep:
	$(GO) test -run '^$$' -bench '$(SWEEP_PATTERN)' -benchtime 10x -count $(SWEEP_COUNT) . ./internal/moo ./internal/histstore

## bench-boot: repeated runs of BenchmarkCalibrate (generate the SF 0.004 calibration database, run the four studied queries on it) and of BenchmarkTenantBuild (one cold server.New of solo's spec, then Drain) at -cpu 1,2 — the cost every boot and cold tenant build pays per federation, for benchstat
bench-boot:
	$(GO) test -run '^$$' -bench 'Calibrate' -benchmem -count 5 -cpu 1,2 ./internal/federation
	$(GO) test -run '^$$' -bench '^BenchmarkTenantBuild$$' -benchmem -count 5 -cpu 1,2 .

## layers: the layer ledger — PlanSweep/Full/*, SweepRound, ServeServedCold, ServeHotPath, HistoryPage/Repeat, HistoryPage/Polled and TenantBuild at -cpu 1,2, six runs of at least 0.5 s each, summarised per (benchmark, cpu) into BENCH_layers.json under the checked-out commit (a few minutes; CI runs only the ledger's parse test)
layers:
	$(GO) test -run '^$$' -bench '^Benchmark(PlanSweep|SweepRound|ServeServedCold|ServeHotPath|HistoryPage|TenantBuild)$$' -benchmem -benchtime 0.5s -count 6 -cpu 1,2 . | \
		$(GO) run ./cmd/benchledger BENCH_layers.json "$$(git describe --always --dirty --abbrev=12)"

## scenarios: the fixed-seed scenario sweep — MRE, regret and p99 per (arrival × chaos) cell
scenarios:
	$(GO) run ./cmd/midasctl scenarios

## profile-sweep: CPU profiles of the cold window-search benchmarks, of the served-shape search (WindowSearchServed, -cpu 1) and of one whole 2,048-plan round (SweepRound, -cpu 1), plus that round's allocation profile sampled at every allocation, into $(PROFILE_DIR)/
profile-sweep:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'WindowSearchCold' -benchtime 200x \
		-cpuprofile $(PROFILE_DIR)/cold-sweep.cpu.pprof \
		-o $(PROFILE_DIR)/cold-sweep.test .
	$(GO) test -run '^$$' -bench 'WindowSearchServed' -benchtime 200000x -cpu 1 \
		-cpuprofile $(PROFILE_DIR)/served-search.cpu.pprof \
		-o $(PROFILE_DIR)/served-search.test .
	$(GO) test -run '^$$' -bench 'SweepRound' -benchtime 20000x -cpu 1 \
		-cpuprofile $(PROFILE_DIR)/sweep-round.cpu.pprof \
		-o $(PROFILE_DIR)/sweep-round.test .
# A run of its own: sampling every allocation would distort the CPU profile.
	$(GO) test -run '^$$' -bench 'SweepRound' -benchtime 20000x -cpu 1 \
		-memprofile $(PROFILE_DIR)/sweep-round.mem.pprof -memprofilerate 1 \
		-o $(PROFILE_DIR)/sweep-round.test .
	@echo "profiles written; inspect with:"
	@echo "  go tool pprof $(PROFILE_DIR)/cold-sweep.test $(PROFILE_DIR)/cold-sweep.cpu.pprof"
	@echo "  go tool pprof -top -cum $(PROFILE_DIR)/sweep-round.test $(PROFILE_DIR)/sweep-round.cpu.pprof"
	@echo "  go tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/sweep-round.test $(PROFILE_DIR)/sweep-round.mem.pprof"

## profile-cluster: CPU profile of the replication hop (ReplicatedAppend, -cpu 1: owner, standby and the loopback stream between them in one process) into $(PROFILE_DIR)/
profile-cluster:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'ReplicatedAppend' -benchtime 100000x -cpu 1 \
		-cpuprofile $(PROFILE_DIR)/replicated-append.cpu.pprof \
		-o $(PROFILE_DIR)/replicated-append.test ./internal/server
	@echo "profile written; inspect with:"
	@echo "  go tool pprof -top -cum $(PROFILE_DIR)/replicated-append.test $(PROFILE_DIR)/replicated-append.cpu.pprof"

## profile-boot: CPU and allocation profiles of BenchmarkCalibrate (-cpu 1), one tenant build's calibration, into $(PROFILE_DIR)/
profile-boot:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'Calibrate' -benchtime 200x -cpu 1 \
		-cpuprofile $(PROFILE_DIR)/boot.cpu.pprof \
		-memprofile $(PROFILE_DIR)/boot.mem.pprof \
		-o $(PROFILE_DIR)/boot.test ./internal/federation
	@echo "profiles written; inspect with:"
	@echo "  go tool pprof -top -cum $(PROFILE_DIR)/boot.test $(PROFILE_DIR)/boot.cpu.pprof"
	@echo "  go tool pprof -sample_index=alloc_space -top $(PROFILE_DIR)/boot.test $(PROFILE_DIR)/boot.mem.pprof"

## profile-serve: CPU + allocation profiles of the serving hot path into $(PROFILE_DIR)/
profile-serve:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'ServeHotPath' -benchtime 3s \
		-cpuprofile $(PROFILE_DIR)/serve.cpu.pprof \
		-memprofile $(PROFILE_DIR)/serve.mem.pprof \
		-o $(PROFILE_DIR)/serve.test .
	@echo "profiles written; inspect with:"
	@echo "  go tool pprof $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve.cpu.pprof"
	@echo "  go tool pprof -sample_index=alloc_objects $(PROFILE_DIR)/serve.test $(PROFILE_DIR)/serve.mem.pprof"

## bench-json: one iteration of every benchmark as test2json events (BENCH_*.json artifacts)
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -json ./...

## cover: enforce the coverage floor on every package under internal/
cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		out="$$($(GO) test -cover $$pkg)"; echo "$$out"; \
		pct="$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p+0 >= f+0)}'; then \
			echo "FAIL: $$pkg coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

help:
	@grep -E '^## ' Makefile | sed 's/^## /  /'
