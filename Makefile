GO ?= go

.PHONY: build test check flake-check audit-check race-chaos bench-commit bench-read bench-scale bench-shards bench-hotspot bench-diff alloc-gate trace-check clean

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the full gate: tier-1 build+test, vet, and the race detector
# over the packages with real concurrency (the chaos harness runs its
# bounded seed set — over 100 randomized schedules — under -race).
check: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/audit/ ./internal/chaos/ ./internal/core/ ./internal/dfs/ ./internal/memcache/ ./internal/mq/ ./internal/obs/ ./internal/rpc/
	$(GO) test -run '^$$' -bench 'ReaddirBarrier' -benchtime 1x ./internal/core/

# flake-check reruns the packages with real concurrency twenty times,
# uncached, so a test that fails one run in twenty fails the build the
# day it appears instead of scrolling past as a retry.
flake-check: build
	$(GO) test -count=20 ./internal/mq/ ./internal/core/ ./internal/chaos/ ./internal/dfs/ ./internal/bench/

# audit-check is the divergence gate: the chaos suite runs with the
# post-drain auditor as a second convergence oracle (any divergent or
# stale-pending key fails the run), the audit/core staleness tests run,
# and the audit experiment writes AUDIT_report.json — the evidence CI
# archives. The report is written even when the gate fails, failing
# seeds included (their "violations" metric is non-zero).
audit-check: build
	$(GO) test -count=1 ./internal/chaos/ ./internal/audit/
	$(GO) run ./cmd/paconbench -quick -fig audit -json AUDIT_report.json

# The bench-* targets regenerate the committed reports at default
# scale. Every report has one schema — {experiment, config, points:
# [{params, metrics, stages}], notes} — and each experiment runs once.
#
# bench-commit: commit-path round trips (conditional + coalesced +
# batched) and the consistency lag of the create+write+remove mix.
bench-commit:
	$(GO) run ./cmd/paconbench -fig commit -json BENCH_commit.json

# bench-read: batched multi-key reads + scoped barriers under a
# readdir+stat mix with sibling writers.
bench-read:
	$(GO) run ./cmd/paconbench -fig read -json BENCH_read.json

# bench-scale: virtual throughput at 160 → 1M simulated clients
# multiplexed onto at most 64 shard goroutines.
bench-scale:
	$(GO) run ./cmd/paconbench -fig scale -json BENCH_scale.json

# bench-shards: the commit, read and scale workloads at 1/2/4/8 MDS
# shards — the only place those sweeps run.
bench-shards:
	$(GO) run ./cmd/paconbench -fig shards -json BENCH_shards.json

# bench-hotspot: a zipf-skewed stat/create mix at scale-bench fan-in,
# sweeping zipf s ∈ {1.0, 1.2, 1.4} × MDS shards ∈ {1, 4} and reporting
# client p50/p99, per-shard utilization spread, and the top-K sketch's
# recall of the true hot set (acceptance: ≥0.90 at s=1.2).
bench-hotspot:
	$(GO) run ./cmd/paconbench -fig hotspot -json BENCH_hotspot.json

# bench-diff compares two reports point by point (matched by params)
# and fails on >10% regressions of direction-known metrics (throughput
# down, latency up); reports with different configs are not comparable.
# Usage: make bench-diff OLD=BENCH_hotspot.json NEW=BENCH_hotspot_ci.json
bench-diff:
	$(GO) run ./cmd/benchdiff -fail $(OLD) $(NEW)

# alloc-gate pins the create hot path's allocation count. The
# pre-pooling baseline was 31 allocs/op; pooled codec + inline hashing +
# buffer reuse brought it to 7, and the gate fails if it regresses past
# 16 — halfway back to the baseline.
alloc-gate:
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreate$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreate/ {print $$(NF-1)}'); \
	echo "create path: $$allocs allocs/op (gate: <= 16)"; \
	test "$$allocs" -le 16
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkClientCreateSharded$$' -benchtime 2000x -benchmem ./internal/core/); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/^BenchmarkClientCreateSharded/ {print $$(NF-1)}'); \
	echo "create path (4-shard router): $$allocs allocs/op (gate: <= 16)"; \
	test "$$allocs" -le 16

# trace-check is the causal-tracing gate: the cross-node trace tests
# (wire propagation, assembly/ordering, sampling, flight recorder) run
# against a counted build, then the quick scale run goes with tracing
# live at the default 1-in-64 rate and writes BENCH_scale_ci.json —
# whose per-point trace_* metrics are the evidence the sampler actually
# sampled at scale. It is CI's only scale run.
trace-check: build
	$(GO) test -count=1 -run 'Trace|Span|Sampl|Flight|CritPath' ./internal/obs/ ./internal/rpc/ ./internal/core/ ./internal/chaos/
	$(GO) run ./cmd/paconbench -quick -fig scale -json BENCH_scale_ci.json

# race-chaos runs only the chaos convergence schedules under -race.
race-chaos:
	$(GO) test -race -count=1 ./internal/chaos/

clean:
	$(GO) clean ./...
