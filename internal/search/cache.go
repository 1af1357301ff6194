package search

import (
	"fmt"
	"sync"

	"repro/internal/canon"
	"repro/internal/engine"
	"repro/internal/lru"
	"repro/internal/mesh"
	"repro/internal/predictor"
	"repro/internal/sim"
)

// predictorIDs assigns each predictor instance a stable process-unique ID
// for cache keys. A raw %p address would be unsafe in a persistent cache:
// after the predictor is garbage-collected its address can be reused by a
// different predictor, silently aliasing stale entries. The registry both
// hands out unique IDs and pins registered predictors for the process
// lifetime, so an ID can never be reassigned. The set of distinct
// predictors in a process is small (shared lookup tables), so the pin is
// cheap.
var (
	predMu   sync.Mutex
	predIDs  = map[predictor.Predictor]uint64{}
	predNext uint64
)

// PredictorID returns the stable cache identity of a predictor instance.
func PredictorID(p predictor.Predictor) uint64 {
	if p == nil {
		return 0
	}
	predMu.Lock()
	defer predMu.Unlock()
	if id, ok := predIDs[p]; ok {
		return id
	}
	predNext++
	predIDs[p] = predNext
	return predNext
}

// DefaultCacheCapacity bounds the process-wide evaluation cache. One entry
// holds a sim.Report (a few KB); the default keeps the cache well under
// 100 MB while covering every figure reproduction of a full harness run.
const DefaultCacheCapacity = 8192

// CacheStats is a snapshot of cache effectiveness counters (re-exported from
// the dependency-free lru package).
type CacheStats = lru.Stats

// Cache is the LRU memoization cache for strategy evaluations: one entry
// per (configuration, strategy) fingerprint holding the report and the
// evaluation error (deterministic failures such as OOM strategies are
// memoized too, so repeated infeasible candidates are also cheap).
type Cache struct {
	lru *lru.Cache[evalOutcome]
}

type evalOutcome struct {
	report sim.Report
	err    error
}

// NewCache returns an evaluation cache bounded to capacity entries (<=0
// selects DefaultCacheCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{lru: lru.New[evalOutcome](capacity)}
}

// Get returns the memoized outcome for the key, counting a hit or miss.
func (c *Cache) Get(key string) (sim.Report, error, bool) {
	o, ok := c.lru.Get(key)
	return o.report, o.err, ok
}

// Put stores an evaluation outcome.
func (c *Cache) Put(key string, r sim.Report, err error) {
	c.lru.Put(key, evalOutcome{report: r, err: err})
}

// Stats snapshots the hit/miss counters and current size.
func (c *Cache) Stats() CacheStats { return c.lru.Stats() }

// Reset drops all entries and zeroes the counters.
func (c *Cache) Reset() { c.lru.Reset() }

var defaultCache = NewCache(DefaultCacheCapacity)

// DefaultCache is the process-wide shared cache. Sharing one cache across
// the scheduler, the DSE and every experiment runner is what lets repeated
// (wafer, strategy) configurations — baselines, ablations and figure points
// re-simulating the same candidates — hit instead of re-simulate.
func DefaultCache() *Cache { return defaultCache }

// cachedEvaluator memoizes an inner evaluator through a Cache.
type cachedEvaluator struct {
	inner Evaluator
	cache *Cache
}

// Cached wraps an evaluator with memoization on the given cache (nil =
// DefaultCache).
func Cached(inner Evaluator, c *Cache) Evaluator {
	if c == nil {
		c = DefaultCache()
	}
	return &cachedEvaluator{inner: inner, cache: c}
}

// Evaluate implements Evaluator with fingerprint-keyed memoization.
func (e *cachedEvaluator) Evaluate(cfg engine.Config, m *mesh.Mesh, strat sim.Strategy) (sim.Report, error) {
	key := Fingerprint(cfg, m, strat)
	if r, err, ok := e.cache.Get(key); ok {
		return r, err
	}
	r, err := e.inner.Evaluate(cfg, m, strat)
	e.cache.Put(key, r, err)
	return r, err
}

// Fingerprint returns the canonical memoization key of one evaluation: the
// wafer configuration, model spec, workload, (TP, PP) factorisation,
// collective algorithm, predictor identity, mesh fault state, placement
// regions, recompute genome (choices, per-stage checkpoint bytes, Mem_pairs)
// and helper-die allocations. Two evaluations with equal fingerprints are
// meant to produce bit-identical reports, because sim.Evaluate is a pure
// function of exactly these inputs; but the wafer enters as its String
// summary, so two wafers that differ only outside it (W2W, latencies)
// share their keys.
func Fingerprint(cfg engine.Config, m *mesh.Mesh, strat sim.Strategy) string {
	return canon.Render(func(b []byte) []byte { return appendFingerprint(b, &cfg, m, &strat) })
}

// appendFingerprint appends Fingerprint's bytes to b.
func appendFingerprint(b []byte, cfg *engine.Config, m *mesh.Mesh, strat *sim.Strategy) []byte {
	// engine.Config through fmt: %+v prints the model spec and the
	// workload field by field, but the wafer through hw.WaferConfig's
	// String method, a rounded summary without W2W or the link and NoC
	// latencies. The predictor contributes its identity (distinct
	// predictors may produce distinct estimates).
	b = fmt.Appendf(b, "w=%+v|s=%+v|wl=%+v|tp=%d|pp=%d|c=%d|p=%d",
		cfg.Wafer, cfg.Spec, cfg.Workload, cfg.TP, cfg.PP, cfg.Collective, PredictorID(cfg.Predictor))
	if m != nil {
		if fk := m.FaultKey(); fk != "" {
			b = append(b, "|f="...)
			b = append(b, fk...)
		}
	}
	// The strategy, appended by hand as fmt's %v and %g render it.
	b = append(b, "|pw="...)
	b = canon.Int(b, strat.PipelineWafers)
	if strat.Placement != nil {
		b = append(b, "|pl="...)
		for _, r := range strat.Placement.Regions {
			b = canon.Dies(b, r.Dies)
			b = append(b, ';')
		}
	}
	if rc := strat.Recompute; rc != nil {
		b = append(b, "|rc="...)
		b = canon.Ints(b, rc.Choice)
		b = append(b, ',')
		b = canon.Floats(b, rc.StageCkptBytes)
		b = append(b, ',')
		b = canon.Floats(b, rc.ExtraBwd)
		b = append(b, ',')
		b = canon.Pairs(b, rc.Pairs, false)
		b = append(b, ',')
		b = canon.Float(b, rc.OverflowBytes)
		b = append(b, ',')
		b = canon.Float(b, rc.MaxStageTime)
	}
	if len(strat.Allocations) > 0 {
		b = append(b, "|al="...)
		b = canon.Allocations(b, strat.Allocations)
	}
	return b
}
