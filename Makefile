GO ?= go
FUZZTIME ?= 30s

.PHONY: ci vet fmt lint vuln build test flake shuffle race bench bench-smoke bench-sweep bench-sweep-4 bench-sweep-7 bench-sweep-10 alloc-gate chaos chaos-partition chaos-partition-smoke fuzz-smoke crash overload-smoke explore-smoke explore cover

# The full gate: what must pass before merging.
ci: vet fmt lint vuln build test flake shuffle race bench-smoke alloc-gate fuzz-smoke crash chaos-partition-smoke overload-smoke explore-smoke

vet:
	$(GO) vet ./...

# gofmt as a gate: fail (and show the files) if anything is unformatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck/govulncheck when the binaries are on PATH; skipped (with a
# note) where they are not installed, so the gate degrades instead of
# forcing a network install on hermetic CI containers.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "vuln: govulncheck not installed, skipping"; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The interleaving-sensitive integration tests, rerun: each run draws
# fresh goroutine schedules, so a scheduler bug that shows in one run
# of N fails here instead of flaking in `test`.
flake:
	$(GO) test -count=20 -run 'TestBankingInvariantAllSchedulers|TestConcurrentHistoriesAreDSR' ./internal/sim ./internal/history

# The suite again in random test order: catches inter-test state leaks
# (shared package-level state, test-order-dependent fixtures).
shuffle:
	$(GO) test -shuffle=on ./...

# The concurrency-sensitive packages under the race detector: the
# striped scheduler hot path (latch table, striped adapters, sharded
# store), the fault injector and the DMT(k) degraded-mode machinery
# (crash/recovery racing allocations and counter sync), plus the
# runtime, the group-commit log writer and the harness that drive them.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... ./internal/storage/... ./internal/lock/... ./internal/dmt/... ./internal/fault/... ./internal/txn/... ./internal/wal/... ./internal/sim/... ./internal/admit/... ./internal/explore/...

bench:
	$(GO) test -bench=. -benchmem -benchtime=20x ./...

# Every benchmark for exactly one iteration: benchmarks are build- and
# run-checked in CI so they cannot silently rot, without paying for a
# real measurement run.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The reproducible scheduler sweep behind bench/BENCH_3.json (see
# EXPERIMENTS.md E24). Re-running with the same flags re-runs the
# identical workload.
bench-sweep:
	$(GO) run ./cmd/mtbench -scheds mt-coarse,mt-striped,mtdefer-striped,composite \
		-workers 1,2,4,8,16 -workloads uniform,zipf -iolat 0,20us -txns 1200 \
		-csv bench/bench_3.csv -json bench/BENCH_3.json

# The engine-unification sweep behind bench/BENCH_4.json (see
# EXPERIMENTS.md E25): every engine-backed family coarse vs striped,
# with per-family speedup columns.
bench-sweep-4:
	$(GO) run ./cmd/mtbench \
		-scheds mt-coarse,mt-striped,composite-coarse,composite-striped,dmt-coarse,dmt-striped \
		-speedups mt-coarse:mt-striped,composite-coarse:composite-striped,dmt-coarse:dmt-striped \
		-workers 1,2,4,8 -workloads uniform,zipf -iolat 0,20us -txns 1200 \
		-csv bench/bench_4.csv -json bench/BENCH_4.json

# Allocation regression gate (EXPERIMENTS.md E29): runs the hot-path
# benchmarks with -benchmem and checks allocs/op and B/op against the
# budgets in bench/alloc_budget.json. The steady-state engine/adapter
# benches are budgeted at exactly 0 allocs/op; the runtime layer
# (BenchmarkRuntimeExec, and BenchmarkRuntimeRetry for a transaction
# whose first attempt is rejected) in both units, so per-transaction
# runtime state cannot creep back as one large allocation; the
# whole-run cells get headroom for setup noise. A budget pattern
# matching no benchmark also fails, so a renamed benchmark cannot
# silently escape its gate.
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkStripedScheduler/(free-store|steady)|BenchmarkDurableCommit/volatile|BenchmarkRuntime(Exec|Retry)' \
		-benchmem -benchtime 100x . | $(GO) run ./cmd/allocgate -budget bench/alloc_budget.json

# The zero-allocation-hot-path sweep behind bench/BENCH_10.json (see
# EXPERIMENTS.md E29): same grid as bench-sweep-4 so the rows are
# directly comparable before/after the interning + pooling rework.
# GOMAXPROCS=1 matches the BENCH_4 baseline environment.
bench-sweep-10:
	GOMAXPROCS=1 $(GO) run ./cmd/mtbench \
		-scheds mt-coarse,mt-striped,composite-coarse,composite-striped,dmt-coarse,dmt-striped \
		-speedups mt-coarse:mt-striped,composite-coarse:composite-striped,dmt-coarse:dmt-striped \
		-workers 1,2,4,8 -workloads uniform,zipf -iolat 0,20us -txns 1200 \
		-csv bench/bench_10.csv -json bench/BENCH_10.json

# A quick chaos smoke run: DMT(k) under crash + drift + message loss.
chaos:
	$(GO) run ./cmd/mtsim -chaos chaos -sites 4 -txns 2000 -workers 8 -k 3

# The partition-tolerance A/B matrix (EXPERIMENTS.md E26): fail-fast vs
# degraded parked commits across partition plans and crash variants,
# volatile and sidecar-backed counters. Each line reruns the identical
# seeded schedule under both policies and prints the availability delta.
chaos-partition:
	$(GO) run ./cmd/mtsim -partition partition -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-crash -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 2000 -seed 1
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 2000 -seed 1 -sitewal
	$(GO) run ./cmd/mtsim -partition partition-asym -sites 4 -txns 2000 -seed 2

# One seed of the matrix for the CI gate (the full matrix is a local /
# nightly target).
chaos-partition-smoke:
	$(GO) run ./cmd/mtsim -partition partition-churn -sites 4 -txns 1000 -seed 1

# One quick overload A/B for the CI gate: exercises shedding, deadline
# accounting and the retention math end-to-end from the CLI. The
# measured curve (2000 txns, median-of-3) is bench-sweep-7 / E27.
overload-smoke:
	$(GO) run ./cmd/mtsim -sched mt -overload 1,10 -txns 800 -items 32 \
		-readfrac 0.5 -hotitems 4 -hotfrac 0.9 -workers 4

# The overload sweep behind bench/BENCH_7.json (EXPERIMENTS.md E27):
# goodput at 1x/4x/10x offered load per scheduler variant, admission
# control on vs off, median of 3 runs per point.
bench-sweep-7:
	$(GO) run ./cmd/mtsim -sched mt,mtdefer,composite,dmt -overload 1,4,10 \
		-txns 2000 -items 32 -readfrac 0.5 -hotitems 4 -hotfrac 0.9 \
		-workers 4 -repeats 3 -csv bench/bench_7.csv -json bench/BENCH_7.json

# Run every fuzz target for FUZZTIME each (Go runs one -fuzz target per
# invocation, hence the loop). Seed corpora alone run in `test`.
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseLog -fuzztime=$(FUZZTIME) ./internal/oplog/
	$(GO) test -fuzz=FuzzParseLogWAL -fuzztime=$(FUZZTIME) ./internal/wal/
	$(GO) test -fuzz=FuzzReplayTrace -fuzztime=$(FUZZTIME) ./internal/explore/

# Controlled-concurrency schedule exploration (internal/explore, see
# DESIGN.md §13 / EXPERIMENTS.md E28). The smoke leg runs the full test
# file: PCT campaigns over every scheduler family, exhaustive DFS on the
# 2x2 workloads (with the C(8,4)=70 bound check), the seeded-bug search
# acceptance tests, and the checked-in trace regressions.
explore-smoke:
	$(GO) test ./internal/explore -run TestExplore -explore.budget=40 -timeout 600s

# A deeper local search: more PCT executions per (family, workload).
explore:
	$(GO) test ./internal/explore -run TestExplore -explore.budget=500 -timeout 1800s -v

# Per-package coverage report (the numbers quoted in EXPERIMENTS.md E28).
cover:
	$(GO) test -cover ./internal/... | sort
	@$(GO) test -coverprofile=/tmp/repro-cover.out ./internal/... >/dev/null && \
		$(GO) tool cover -func=/tmp/repro-cover.out | tail -1

# The full crash matrix from the CLI: one run per filesystem sync
# boundary, verifying recovery, durability acks and counter watermarks.
crash:
	$(GO) run ./cmd/mtsim -sched mtdefer -txns 60 -items 8 -crashpoint -1 -checkpoint-every 16
