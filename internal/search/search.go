// Package search is the unified concurrent evaluation runtime shared by the
// central scheduler (internal/sched), the architecture DSE (internal/core,
// internal/baselines) and the figure harness (internal/experiments).
//
// It owns candidate evaluation end-to-end:
//
//   - Evaluator abstracts (engine.Config, mesh, sim.Strategy) → sim.Report,
//     with SimEvaluator as the direct sim.Evaluate backend;
//   - Cache is an LRU memoization layer keyed by a canonical strategy
//     fingerprint (wafer config, TP/PP factorisation, collective algorithm,
//     recompute genome, placement, allocations, mesh fault state), with
//     hit/miss counters exposed for benchmarks.
//
// Whole searches fan out with pool.Map of the pool subpackage, which
// callers use directly: the scheduler's (TP, PP, collective) candidates,
// the Table II and Fig 25 architecture sweeps and the framework
// comparisons. A fan-out exists only where each task is a whole search,
// and the searches inside its tasks run with Workers: 1; a candidate's GA
// and the architecture enumerator run sequentially. The determinism
// contract: parallel output is identical to sequential.
//
// Every evaluation entry point of the repository funnels through this
// package and the pool, so a single -workers knob and one shared cache
// accelerate the scheduler's (TP, PP) sweep, the architecture sweeps and
// repeated figure reproductions alike.
package search

import (
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// Evaluator turns a configuration and a training strategy into a
// performance report. Implementations must be safe for concurrent use: pool
// workers issue Evaluate calls from multiple goroutines.
type Evaluator interface {
	Evaluate(cfg engine.Config, m *mesh.Mesh, strat sim.Strategy) (sim.Report, error)
}

// SimEvaluator is the direct, uncached evaluator backed by sim.Evaluate.
type SimEvaluator struct{}

// Evaluate implements Evaluator.
func (SimEvaluator) Evaluate(cfg engine.Config, m *mesh.Mesh, strat sim.Strategy) (sim.Report, error) {
	return sim.Evaluate(cfg, m, strat)
}

// New returns the standard evaluator stack: sim.Evaluate behind the shared
// memoization cache, or the bare evaluator when caching is disabled.
func New(disableCache bool) Evaluator {
	if disableCache {
		return SimEvaluator{}
	}
	return Cached(SimEvaluator{}, DefaultCache())
}
