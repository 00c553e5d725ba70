# Single source of truth for the commands CI and humans run.
# `make help` lists the targets.

GO ?= go

# Coverage floor (percent) enforced on every package under internal/.
COVER_FLOOR ?= 60
COVER_PKGS ?= $(shell $(GO) list ./internal/...)

# The control-plane tests `make test-cluster` repeats under -race.
CLUSTER_PATTERN ?= Cluster|Chaos|Failover|Stream|Handoff|Adopt|Readyz|Durable|Drain

# Where the `make profile-*` targets drop their profiles.
PROFILE_DIR ?= profiles

.PHONY: all build vet fmt-check lint loc linkcheck test test-cpus test-cluster test-allocs test-short test-bench fuzz-smoke bench bench-smoke bench-json layers scenarios profile-sweep profile-cluster profile-serve profile-boot cover help

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
		stats:FuzzRNGMatchesMathRand:10s \
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

## layers: the layer ledger, the one command that times a layer (307 s on a 2-core VM, over the 5 min it should take: 384 timed runs of 0.5 s or more, ≈ 0.8 s of wall each) — every layer's benchmarks at -cpu 1,2, six runs each, summarised per (package, benchmark, cpu) into BENCH_layers.json under the checked-out commit, that run rendered into docs/performance.md's generated table. Recovery runs n=10000 and retain=1024/n=100000 only (every timing round writes a size's store again), ServeDurable only wal (fsync latency is the disk's noise). -cpu 2 only raises GOMAXPROCS: every loop but ServeDurable/wal's RunParallel is serial, so the second P serves the runtime, the GC and ReplicatedAppend's standby side. There is no -cpu 4 row: on 2 cores it would time oversubscription. CI runs only the ledger's tests.
layers:
	@for spec in \
		'^Benchmark(PlanSweep|SweepRound|ServeServedCold|ServeHotPath|HistoryPage|TenantBuild|WindowSearchServed|WindowSearchCold|RouteLookup|ParetoFront|WALAppend|Calibrate|RNGDraw|ReplicatedAppend)$$ . ./internal/moo ./internal/histstore ./internal/federation ./internal/stats ./internal/server' \
		'^BenchmarkServeDurable$$/^wal$$ .' \
		'^BenchmarkRecovery$$/^n=10000$$ ./internal/histstore' \
		'^BenchmarkRecovery$$/^retain=1024$$/^n=100000$$ ./internal/histstore'; do \
		set -- $$spec; pattern=$$1; shift; \
		$(GO) test -run '^$$' -bench "$$pattern" -benchmem -benchtime 0.5s -count 6 -cpu 1,2 "$$@"; \
	done | $(GO) run ./cmd/benchledger BENCH_layers.json "$$(git describe --always --dirty --abbrev=12)"

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
