package experiments

import (
	"repro/internal/sched"
	"repro/internal/search"
)

// Workers is how many whole searches every experiment runner's fan-out
// runs at once — a search's candidates, Fig 25's dies, the compared
// frameworks (0 = GOMAXPROCS, 1 = sequential). cmd/figures threads its
// -workers flag here.
var Workers int

// searchOpts injects the shared runtime knobs into a runner's search
// options. All figure runners evaluate through the same predictor and the
// process-wide search.DefaultCache, so (wafer, strategy) points shared
// between baselines, ablations and figures are simulated once and then
// served from the cache.
func searchOpts(o sched.Options) sched.Options {
	o.Workers = Workers
	return o
}

// CacheStats reports the shared evaluation cache's effectiveness across all
// experiments run so far in this process.
func CacheStats() search.CacheStats {
	return search.DefaultCache().Stats()
}

// CandidateCacheStats reports the scheduler's candidate-level memoization
// counters — whole (TP, PP, collective) exploration points reused across
// figure runners, baselines and ablations.
func CandidateCacheStats() search.CacheStats {
	return sched.CacheStats()
}
