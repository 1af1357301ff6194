package shard

import (
	"context"
	"errors"
	"time"

	"repro/internal/service"
)

// Async sweeps at the routing tier run the daemon's lifecycle
// (service.SweepEngine): POST /v1/sweeps answers 202 with a durable handle,
// legs dispatch critical-path-first and fold back incrementally, and the
// merged record stays byte-identical to a single-node sweep. The router
// supplies only the leg dispatcher below: each leg scatters across the
// fleet by its own fingerprint and rides runLeg — the bounded-retry,
// replica-failover driver — so mid-sweep shard churn is absorbed and the
// recovery stays observable leg by leg. Legs carry their priority class
// down to the owning shard's queue, so interactive traffic overtakes bulk
// legs fleet-wide, not just locally.

// dispatchLeg is the router's service.LegDispatcher. A fingerprint the
// fleet already answered folds in from the result cache without crossing a
// shard; any other leg runs in the background on its own context — the
// handle outlives the submitting HTTP request, so a client can disconnect
// and poll the handle later.
func (r *Router) dispatchLeg(part service.Request, deadline time.Time, fold func(service.SweepLeg)) error {
	fp := part.Fingerprint()
	if res, ok := r.Cache.Get(fp); ok {
		fold(service.SweepLeg{
			State:  service.StateDone,
			JobID:  "cache/" + ResultCacheKey(fp),
			Shard:  "cache",
			Result: res,
		})
		return nil
	}
	go func() { fold(r.runSweepLeg(part, deadline)) }()
	return nil
}

// runSweepLeg drives one scattered leg through runLeg (bounded retries,
// replica failover, optional per-attempt deadline) and returns its terminal
// record. Failure handling degrades rather than fails where it can:
//
//   - deadline exhaustion (errLegDeadline) expires the sweep, distinctly
//     from failure — the budget ran out, nothing broke;
//   - a retryable-class exhaustion (every replica down or refusing) is
//     absorbed: the leg folds in Degraded, served from the fleet result
//     cache when a prior terminal result exists, as a marker row otherwise,
//     and the sweep still answers with every row it could gather;
//   - only a deterministic execution failure fails the sweep (the
//     infeasible-architecture contract is unchanged).
func (r *Router) runSweepLeg(part service.Request, deadline time.Time) service.SweepLeg {
	res, ref, err := r.runLeg(context.Background(), part, deadline)
	leg := service.SweepLeg{
		JobID:     ref.JobID,
		Shard:     ref.Shard,
		Coalesced: ref.Coalesced,
	}
	switch {
	case err == nil:
		leg.State = service.StateDone
		leg.Result = res
		r.Cache.Put(ref.Fingerprint, res)
	case errors.Is(err, errLegDeadline):
		leg.State = service.StateExpired
		leg.Error = err.Error()
	case legRetryable(err):
		// The replica set is exhausted, not wrong: absorb the leg instead of
		// failing the gathered rows of every healthy shard.
		leg.Degraded = true
		leg.Error = err.Error()
		if cached, ok := r.Cache.Get(part.Fingerprint()); ok {
			// A prior terminal result for this fingerprint: serve the row
			// from the cache tier and the merge stays byte-complete.
			leg.State = service.StateDone
			leg.Result = cached
			leg.Shard = "cache"
		} else {
			leg.State = service.StateFailed
		}
		r.count(func(c *RouterCounters) { c.LegsDegraded++ })
	default:
		leg.State = service.StateFailed
		leg.Error = err.Error()
	}
	return leg
}
