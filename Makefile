.PHONY: build test race bench bench-smoke bench-compare router-smoke chaos-smoke async-smoke overload-smoke prefetch-smoke figures

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Tier-2 performance trajectory: runs the benchmark suite in-process with
# -benchmem semantics (best of 3 timed loops per benchmark) and writes
# BENCH_pr10.json, stamped with the host's CPU count and model: ns/op,
# allocs/op, B/op per benchmark; the service-tier entries, every one run
# against the same in-process daemon or router fleet (direct + routed
# jobs/sec and dedup rates, sweeps, the kill-one-shard-mid-burst
# resilience numbers, async-sweep time-to-first-row, priority latency,
# result-cache repeats); the saturation pair, whose 2x schedule is sized
# from the median of three single-job service times measured in the same
# run and which fails the run unless overload protection wins both goodput
# and interactive p95; the trace-replay prefetch pair over the Table II
# architectures (warm-hit rate + mean demand latency with the speculative
# lane on vs off, failing the run unless prefetch wins the hit rate); plus
# the speedups vs the recorded PR-1..PR-9 baselines and the in-run PR3-era
# annealer full-re-evaluation baseline of the Scorer's price/commit
# iteration.
bench:
	go run ./cmd/bench -out BENCH_pr10.json

# Fast regression gate for the search inner loops and the canonical
# record: the zero-alloc assertions of the Scorer's bound/price/commit
# cycle, its read-only pricing and its commit, and of the GA's fitness on a
# reused per-worker scratch, the GA's flat allocation count in generations
# (1,000 generations within a small slack of 200), and the canonical
# record's allocation bound (TestCanonicalAllocs: at most 32 for a
# 32-candidate record), on their own (the benchmarks only report allocs,
# they don't fail on them),
# the annealer's deterministic bound and pricing counts (one lower bound
# per distinct swap and committed state, fewer prices than bounds), the
# lower bound never above the price (TestSwapLowerBoundBelowPrice) and the
# quasi-monotonicity of math.Exp that rejecting on it relies on
# (TestExpQuasiMonotone), the GA's deterministic price counts
# (TestOptimizeComponentCounts: one t_max price per genome whose
# RecompChoice or Pairs changed from its tournament parent's, fewer Eq 2
# prices than feasible genomes), plus one
# iteration of each annealer (priced and full re-evaluation), placement
# and GA benchmark (BenchmarkGAGeneration times a 16- and a 48-generation
# run on a 7-stage and a 16-stage Mem_pair instance and reports their
# difference per generation), of mesh construction
# on every Table II wafer and mesh-switch (BenchmarkMeshNew, which every
# search pays once), of the cold single-worker search
# (BenchmarkSearchSequential, where GCMR and BuildOptions run) and of the
# record render (BenchmarkCanonical), so a broken or allocating hot path
# fails in seconds without waiting for the full bench run.
bench-smoke:
	go test -run 'TestScorer(Batch|Swap)?ZeroAlloc|TestOptimizePricingCount|TestSwapLowerBoundBelowPrice|TestExpQuasiMonotone' -count=1 ./internal/placement
	go test -run 'TestFitnessZeroAlloc|TestOptimizeAllocsFlatInGenerations|TestOptimizeComponentCounts' -count=1 ./internal/ga
	go test -run 'TestCanonicalAllocs' -count=1 ./internal/service
	go test -run '^$$' -bench 'BenchmarkAnnealSwap$$|BenchmarkOptimizePlacement|BenchmarkGAGeneration|BenchmarkMeshNew|BenchmarkSearchSequential$$|BenchmarkCanonical' -benchtime=1x -benchmem .

# Compare two recorded perf trajectories (ns/op + allocs/op ratios, with a
# regression threshold). Usage:
#   make bench-compare OLD=BENCH_pr9.json NEW=BENCH_pr10.json
OLD ?= BENCH_pr9.json
NEW ?= BENCH_pr10.json
bench-compare:
	bash scripts/bench_compare.sh $(OLD) $(NEW)

# Sharded-tier smoke: 2 watosd shards + watos-router as real processes; a
# routed job and a scatter-gathered sweep must diff clean against in-process
# searches, and a third shard joining with -seed-from must serve a
# previously-routed job without a single cache miss.
router-smoke:
	bash scripts/router_smoke.sh

# Fault-injection smoke: 3 watosd shards + replicated watos-router as real
# processes; one shard is SIGKILLed while it holds a sweep leg and another is
# drained over HTTP — the routed sweep must stay byte-identical throughout,
# the replica placement must stay within the greedy recovery-load bound, and
# the drain inheritor must serve the handed-off slice with zero cold misses.
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Async-job smoke: 1 single-job-worker shard + router as real processes; six
# async bulk sweeps stack a deep sweep-leg backlog, an interactive job
# submitted behind it must finish while the last sweep still runs, the async
# merged record must diff clean against the in-process sweep, and a repeat
# job must be served from the router's completed-result cache without
# crossing the fleet.
async-smoke:
	bash scripts/async_smoke.sh

# Overload smoke: real processes under deliberate overload and brownout. A
# single-worker daemon under a background burst must shed over-budget work
# with 429 + Retry-After while an interactive job overtakes the backlog
# inside its deadline and a stale-deadline job expires without executing;
# a slow-but-alive shard (request stalls injected, healthz green) must trip
# the router's latency breaker, keep routed results byte-identical from the
# fast shard, and be readmitted by a half-open trial once the stall clears.
overload-smoke:
	bash scripts/overload_smoke.sh

# Prefetch smoke: a real watosd with the speculative cache-warming lane on.
# Demand submissions must land in the request trace with decoded sweep
# coordinates, an idle daemon must pre-evaluate the predicted sweep neighbor
# so its later demand submission is a prefetch-attributed warm hit
# (byte-identical to a lane-off evaluation), and a demand burst must cancel
# queued speculation instantly.
prefetch-smoke:
	bash scripts/prefetch_smoke.sh

figures:
	go run ./cmd/figures
