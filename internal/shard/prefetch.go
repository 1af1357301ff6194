package shard

import (
	"context"
	"net/http"
	"time"

	"repro/internal/prefetch"
	"repro/internal/service"
)

// Router half of speculative cache warming: the router records demand
// submissions in its own locality trace, and — when Prefetch is on — each
// accepted demand job predicts its sweep neighbors, ranks them against the
// trace, and pre-evaluates the top few through normal routed submission at
// prefetch priority. The owning shard's idle gate does the capacity
// arbitration (a busy daemon refuses with 503 and the speculation silently
// evaporates); the completed result lands in the router's ResultCache tagged
// Prefetched, so the next demand submission of that fingerprint is answered
// at this tier with the hit attributed to the prefetch lane.
//
// Speculation never indicts a shard: the prefetch path skips breaker
// accounting, failover marking and the RouteErrors counter, and it only
// targets shards whose breaker is fully closed — a recovering shard's
// half-open trial slot is reserved for demand traffic.

// prefetchWaitTimeout bounds one speculative submit+wait round trip. Long
// enough for a cold evaluation on an idle shard, short enough that a wedged
// shard cannot pin prefetch goroutines indefinitely.
const prefetchWaitTimeout = 2 * time.Minute

// observeTrace records a demand arrival in the router's locality trace.
// Speculative submissions are never observed — the predictor must not learn
// its own guesses.
func (r *Router) observeTrace(norm service.Request, fp string) {
	if norm.Priority == "prefetch" {
		return
	}
	r.trace.Observe(fp, time.Now(), norm.TracePoint())
}

// maybePrefetch launches neighbor prediction for an accepted demand
// submission. The goroutine owns the whole speculate-and-warm flow; the
// demand response has already been written by the time it runs.
func (r *Router) maybePrefetch(norm service.Request, fp string) {
	if !r.Prefetch || norm.Priority == "prefetch" {
		return
	}
	go r.predictAndPrefetch(norm, fp)
}

// claimPrefetch marks a fingerprint as having an in-flight speculation;
// false when another prediction already owns it.
func (r *Router) claimPrefetch(fp string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prefetchBusy == nil {
		r.prefetchBusy = make(map[string]bool)
	}
	if r.prefetchBusy[fp] {
		return false
	}
	r.prefetchBusy[fp] = true
	return true
}

func (r *Router) releasePrefetch(fp string) {
	r.mu.Lock()
	delete(r.prefetchBusy, fp)
	r.mu.Unlock()
}

// predictAndPrefetch ranks the accepted request's sweep neighbors by the
// router's learned locality and warms the top PrefetchFanout through the
// fleet, skipping fingerprints already answerable at this tier or already
// being speculated on.
func (r *Router) predictAndPrefetch(prev service.Request, prevFP string) {
	service.PrefetchNeighbors(r.trace, prev, prevFP, r.PrefetchFanout, func(req service.Request, fp string) bool {
		if r.Cache.Contains(fp) || !r.claimPrefetch(fp) {
			return false
		}
		defer r.releasePrefetch(fp)
		return r.prefetchOne(req, fp)
	})
}

// prefetchOne routes one speculative evaluation to the fingerprint's primary
// shard and, if the shard's idle gate admits it, waits for the result and
// stores it in the ResultCache tagged as prefetched. Reports whether the
// speculation was admitted (counted against the fanout); a refusal — busy
// shard, open breaker, no shards — is not.
func (r *Router) prefetchOne(req service.Request, fp string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), prefetchWaitTimeout)
	defer cancel()
	replicas, err := r.Map.PickReplicas(fp)
	if err != nil || len(replicas) == 0 {
		return false
	}
	b := replicas[0]
	if b.breaker.Snapshot().State != "closed" {
		// A recovering shard's half-open trial slot belongs to demand.
		return false
	}
	req.Priority = "prefetch"
	req.Criticality, req.DeadlineMS = 0, 0
	j, coalesced, err := b.Client.SubmitJob(ctx, req)
	if err != nil {
		// The shard's idle gate refused (503), or the shard is gone. Either
		// way the speculation evaporates without breaker or failover
		// side effects — this path must never indict a shard.
		return false
	}
	if !coalesced {
		r.count(func(c *RouterCounters) { c.PrefetchIssued++ })
	}
	done, err := b.Client.Wait(ctx, j.ID)
	if err != nil {
		return true // admitted; the shard still warms its own caches
	}
	switch done.State {
	case service.StateDone:
		if done.Result != nil {
			r.Cache.PutPrefetched(done.Fingerprint, done.Result)
		}
	case service.StateCancelled:
		// Demand arrived at the shard and evicted the queued speculation.
		r.count(func(c *RouterCounters) { c.PrefetchCancelled++ })
	}
	return true
}

// Trace serves the router's request trace — the same payload shape the
// daemons serve, so trace tooling works against either tier.
func (r *Router) Trace() service.TraceInfo {
	entries := r.trace.Entries()
	return service.TraceInfo{Entries: entries, Len: len(entries)}
}

func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.Trace())
}

// newRouterTrace builds the router's trace recorder (shared constructor so
// tests and NewRouter agree on capacity).
func newRouterTrace() *prefetch.Trace[service.TracePoint] {
	return prefetch.NewTrace[service.TracePoint](0)
}
