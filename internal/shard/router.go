package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/prefetch"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Router is the scatter-gather front-end over a shard Map. It serves the
// watosd API surface, so the typed client and `watos -remote` work against
// it unchanged:
//
//   - POST /v1/jobs routes one job to the fingerprint's shard and namespaces
//     the returned job ID as "<shard-addr>/<id>" so later fetches are
//     stateless and resolve to the same daemon even across a router restart
//     with a reordered -shards list;
//   - GET /v1/jobs/{shard-addr}/{id} proxies to the owning shard;
//   - POST /v1/sweeps scatters per-architecture parts across shards by each
//     part's own fingerprint — async by default (202 + SweepStatus handle,
//     poll GET /v1/sweeps/{id}; ?wait=1 blocks for the pre-async 200 +
//     SweepResult) — and merges the gathered record set
//     (service.MergeSweep), byte-identical to a single-node sweep;
//   - GET /v1/stats aggregates the fleet (the flattened service.Stats sums,
//     decodable by the unmodified client) plus router counters, per-shard
//     statuses with queue occupancy gauges, and the audited replica
//     placement (recovery-load graph);
//   - POST /v1/shards admits a new shard to the map mid-run;
//   - DELETE /v1/shards drains a shard out of the fleet: the victim stops
//     taking work, its warm snapshot slice streams to the shards inheriting
//     its fingerprints, and only then is it removed.
type Router struct {
	Map *Map

	// SweepRetries bounds re-dispatches per sweep leg after a retryable
	// failure (shard died mid-leg, job lost to a restart, backpressure);
	// default 2. Re-running a leg is safe: results are canonical and
	// deterministic, so a re-dispatched leg is byte-identical to the
	// original.
	SweepRetries int
	// Cache is the fleet-wide completed-result cache: repeat submissions of
	// an already-answered fingerprint are served here and never cross the
	// fleet. nil disables caching.
	Cache *ResultCache
	// SweepTTL / SweepHistory bound the async sweep-handle store (see
	// jobs.Options); zero takes the store defaults. Set before the first
	// sweep.
	SweepTTL     time.Duration
	SweepHistory int
	// Prefetch enables speculative cache warming: accepted demand
	// submissions predict their sweep neighbors and pre-evaluate the top
	// PrefetchFanout (default 3) through idle shard capacity (see
	// prefetch.go). The trace records regardless, so /v1/trace and the
	// locality model are warm when prefetch is switched on.
	Prefetch       bool
	PrefetchFanout int

	start time.Time
	mu    sync.Mutex
	stats RouterCounters

	trace        *prefetch.Trace[service.TracePoint]
	prefetchBusy map[string]bool // fingerprints with an in-flight speculation; guarded by mu

	sweeps *service.SweepEngine
}

// RouterCounters are the router's own counters (shard-side counters live in
// each shard's stats).
type RouterCounters struct {
	// JobsRouted counts jobs forwarded to a shard (sweep parts included).
	JobsRouted uint64 `json:"jobs_routed"`
	// JobsCoalesced counts forwarded submissions the owning shard coalesced
	// onto an in-flight identical job — the routed-dedup signal: stable
	// hashing is what makes shard-side singleflight keep firing.
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	// SweepsRouted counts scatter-gathered sweep requests.
	SweepsRouted uint64 `json:"sweeps_routed"`
	// RouteErrors counts forwarding failures (shard down mid-request).
	RouteErrors uint64 `json:"route_errors"`
	// Failovers counts submissions that landed on a non-primary replica
	// after the primary failed in-band.
	Failovers uint64 `json:"failovers"`
	// LegRetries counts sweep legs re-dispatched after a retryable failure —
	// the mid-sweep failover signal.
	LegRetries uint64 `json:"leg_retries"`
	// LegsDegraded counts sweep legs the router absorbed as degraded rows
	// (replica set exhausted) instead of failing the whole sweep.
	LegsDegraded uint64 `json:"legs_degraded"`
	// ShardsDrained counts shards removed with a completed snapshot handoff
	// to their inheritors.
	ShardsDrained uint64 `json:"shards_drained"`
	// ShardsRemoved counts all removals, drained or not.
	ShardsRemoved uint64 `json:"shards_removed"`
	// PrefetchIssued counts speculative evaluations a shard's idle gate
	// admitted; PrefetchCancelled counts those the shard later evicted for
	// arriving demand work (issued − cancelled − in-flight completed and
	// warmed a cache somewhere).
	PrefetchIssued    uint64 `json:"prefetch_issued"`
	PrefetchCancelled uint64 `json:"prefetch_cancelled"`
}

// RouterStats is the router's /v1/stats payload. The embedded service.Stats
// carries the fleet aggregate (counter sums, summed queue occupancy, summed
// cache stats), so a plain service client pointed at the router reads fleet
// totals where it expects daemon stats.
type RouterStats struct {
	service.Stats
	Router RouterCounters `json:"router"`
	// ResultCache is the router's completed-fingerprint cache (hits are
	// submissions answered without crossing the fleet).
	ResultCache   ResultCacheStats `json:"result_cache"`
	HealthyShards int              `json:"healthy_shards"`
	TotalShards   int              `json:"total_shards"`
	Shards        []Status         `json:"shards"`
	// Placement is the audited replica placement: the recovery-load graph
	// with its greedy-bound check (see RecoveryReport).
	Placement RecoveryReport `json:"placement"`
}

// NewRouter returns a router over the shard map (sweep legs re-dispatch up
// to twice by default; set SweepRetries before serving to tune).
func NewRouter(m *Map) *Router {
	r := &Router{Map: m, SweepRetries: 2, start: time.Now(), trace: newRouterTrace()}
	r.sweeps = &service.SweepEngine{
		Dispatch: r.dispatchLeg,
		// Fast-fail an empty fleet with the routing sentinel (503) rather
		// than minting a handle whose every leg is doomed.
		Admit: func() error {
			if len(r.Map.Healthy()) == 0 {
				return ErrNoShards
			}
			return nil
		},
		Retention: func() jobs.Options {
			return jobs.Options{TTL: r.SweepTTL, MaxEntries: r.SweepHistory}
		},
	}
	return r
}

func (r *Router) count(fn func(*RouterCounters)) {
	r.mu.Lock()
	fn(&r.stats)
	r.mu.Unlock()
}

// connectionError reports whether a forwarding error is transport-level
// (shard unreachable) rather than an HTTP status from a live shard.
func connectionError(err error) bool {
	var se *client.StatusError
	return err != nil && !errors.As(err, &se)
}

// forwardStatus maps a forwarding error onto the router's response: shard
// HTTP statuses pass through, transport failures surface as 502.
func forwardStatus(err error) int {
	var se *client.StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return http.StatusBadGateway
}

// writeRouteError renders a routing failure. No admitting shard is 503; a
// router-side shed (deadline budget spent walking the chain) keeps the 429
// contract the shards answer with; a shard's own answer passes through with
// its Retry-After hint intact, so end-client retry budgets see the same
// signal either way.
func writeRouteError(w http.ResponseWriter, err error) {
	var shed *service.ShedError
	var se *client.StatusError
	switch {
	case errors.Is(err, ErrNoShards):
		service.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &shed):
		service.WriteSubmitError(w, err)
	default:
		if errors.As(err, &se) && se.RetryAfter > 0 {
			service.SetRetryAfter(w, se.RetryAfter)
		}
		service.WriteError(w, forwardStatus(err), err.Error())
	}
}

// drainingAnswer reports a 503 from a daemon that is draining out of the
// fleet (service.ErrDraining rendered over HTTP). Distinct from a busy 503:
// a full backlog clears, but a draining shard never takes the work — its
// replica chain is the answer.
func drainingAnswer(err error) bool {
	var se *client.StatusError
	return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable &&
		strings.Contains(se.Message, service.ErrDraining.Error())
}

// Handler returns the router's HTTP API.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", r.handleList)
	mux.HandleFunc("GET /v1/jobs/{id...}", r.handleJob)
	r.sweeps.Routes(mux, writeRouteError)
	mux.HandleFunc("GET /v1/stats", r.handleStats)
	mux.HandleFunc("GET /v1/trace", r.handleTrace)
	mux.HandleFunc("GET /v1/shards", r.handleShards)
	mux.HandleFunc("POST /v1/shards", r.handleAddShard)
	mux.HandleFunc("DELETE /v1/shards", r.handleRemoveShard)
	mux.HandleFunc("GET /v1/healthz", r.handleHealth)
	return mux
}

// submitRouted normalizes a request, routes it by fingerprint and submits it
// along the fingerprint's replica chain: the rendezvous primary first, then
// in-band failover to each remaining replica on a connection-level failure.
// If the whole chain connection-fails, the exclusions it recorded have
// changed the healthy set, so one re-pick walks the post-exclusion chain
// before giving up — a fleet losing R shards at once still costs a
// submission only the failover hops.
//
// deadline is the request's absolute admission deadline (zero = none): each
// forwarded attempt re-derives the remaining relative budget — the shard's
// own queue-wait admission check must see the time failover hops already
// spent — and an exhausted budget is refused here (a shed, 429) instead of
// burning a shard round-trip on work the caller has already abandoned. Every
// submit round-trip also feeds the target's circuit breaker.
func (r *Router) submitRouted(ctx context.Context, req service.Request, deadline time.Time) (service.Job, *Backend, bool, error) {
	norm, err := req.Normalize()
	if err != nil {
		return service.Job{}, nil, false, err
	}
	fp := norm.Fingerprint()
	var lastErr error
	for pass := 0; pass < 2; pass++ {
		replicas, err := r.Map.PickReplicas(fp)
		if err != nil {
			if lastErr != nil {
				err = lastErr
			}
			return service.Job{}, nil, false, err
		}
		for i, b := range replicas {
			if !deadline.IsZero() {
				rem := time.Until(deadline)
				if rem <= 0 {
					return service.Job{}, nil, false, &service.ShedError{
						Reason: "deadline budget exhausted before dispatch"}
				}
				norm.DeadlineMS = int64((rem + time.Millisecond - 1) / time.Millisecond)
			}
			// PickReplicas filtered on breaker state, but the half-open trial
			// slot is claimed here, at the send: at most one request probes a
			// recovering shard at a time.
			if !b.breaker.Allow() {
				continue
			}
			start := time.Now()
			j, coalesced, err := b.Client.SubmitJob(ctx, norm)
			b.breaker.Observe(time.Since(start), err)
			if err == nil {
				j.ID = b.Addr + "/" + j.ID
				failedOver := i > 0 || pass > 0
				r.count(func(c *RouterCounters) {
					c.JobsRouted++
					if coalesced {
						c.JobsCoalesced++
					}
					if failedOver {
						c.Failovers++
					}
				})
				return j, b, coalesced, nil
			}
			r.count(func(c *RouterCounters) { c.RouteErrors++ })
			if !connectionError(err) {
				if drainingAnswer(err) {
					// A draining daemon is leaving the fleet: its refusal is a
					// routing fact, not the request's answer — exclude it and
					// walk the chain, exactly as the drain flow is about to.
					lastErr = err
					b.MarkFailed(err)
					continue
				}
				// A live shard answered with an HTTP status: that is the
				// request's answer, not a reason to try its replica.
				return service.Job{}, b, false, err
			}
			lastErr = err
			b.MarkFailed(err)
		}
	}
	if lastErr == nil {
		// Every replica was skipped without an attempt (breaker trial slots
		// claimed elsewhere): no shard is admitting this fingerprint right now.
		lastErr = ErrNoShards
	}
	return service.Job{}, nil, false, lastErr
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var jr service.Request
	if err := service.DecodeBody(w, req, &jr); err != nil {
		service.WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	norm, err := jr.Normalize()
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := norm.Fingerprint()
	// Every demand arrival — cache-served or routed — feeds the locality
	// trace; speculative submissions never do.
	r.observeTrace(norm, fp)
	// Completed-result cache: a fingerprint the fleet already answered is
	// served at this tier — the submission never crosses to a shard. A hit
	// still predicts: the requester is walking a sweep trajectory whether or
	// not this step was warm.
	if j, ok := r.cachedJob(fp); ok {
		r.maybePrefetch(norm, fp)
		service.WriteJSON(w, http.StatusOK, j)
		return
	}
	j, _, coalesced, err := r.submitRouted(req.Context(), jr, norm.Deadline(time.Now()))
	if err == nil {
		r.maybePrefetch(norm, fp)
	}
	switch {
	case err != nil:
		writeRouteError(w, err)
	case coalesced:
		service.WriteJSON(w, http.StatusOK, j)
	default:
		service.WriteJSON(w, http.StatusAccepted, j)
	}
}

// cachedJob renders a completed-result-cache hit as a synthetic done job in
// the reserved "cache/<shard-key>" ID namespace, so the normal submit→poll
// client flow works unchanged on a hit.
func (r *Router) cachedJob(fp string) (service.Job, bool) {
	res, ok := r.Cache.Get(fp)
	if !ok {
		return service.Job{}, false
	}
	now := time.Now()
	return service.Job{
		ID:          "cache/" + ResultCacheKey(fp),
		Fingerprint: fp,
		State:       service.StateDone,
		SubmittedAt: now,
		StartedAt:   now,
		FinishedAt:  now,
		Result:      res,
	}, true
}

func (r *Router) handleJob(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if key, ok := strings.CutPrefix(id, "cache/"); ok {
		fp, res, found := r.Cache.GetByKey(key)
		if !found {
			// Cache-hit job IDs are only ever minted from live entries, so a
			// miss here means LRU/flush eviction: gone, not unknown.
			service.WriteError(w, http.StatusGone, "cached result "+id+" evicted")
			return
		}
		service.WriteJSON(w, http.StatusOK, service.Job{
			ID: id, Fingerprint: fp, State: service.StateDone, Result: res,
		})
		return
	}
	shardAddr, rest, ok := strings.Cut(id, "/")
	if !ok {
		service.WriteError(w, http.StatusNotFound,
			fmt.Sprintf("router job IDs are <shard-addr>/<job>, got %q", id))
		return
	}
	b, ok := r.Map.BackendByAddr(shardAddr)
	if !ok {
		service.WriteError(w, http.StatusNotFound, "unknown shard "+shardAddr)
		return
	}
	start := time.Now()
	j, err := b.Client.Job(req.Context(), rest)
	b.breaker.Observe(time.Since(start), err)
	if err != nil {
		if connectionError(err) {
			b.MarkFailed(err)
		}
		service.WriteError(w, forwardStatus(err), err.Error())
		return
	}
	if j.State == service.StateDone && j.Result != nil {
		// Every completed record that flows back through the router lands in
		// the completed-result cache, whatever path produced it.
		r.Cache.Put(j.Fingerprint, j.Result)
	}
	j.ID = b.Addr + "/" + j.ID
	service.WriteJSON(w, http.StatusOK, j)
}

func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	out := []service.Summary{}
	for _, b := range r.Map.Healthy() {
		sums, err := b.Client.Jobs(req.Context())
		if err != nil {
			if connectionError(err) {
				b.MarkFailed(err)
			}
			continue
		}
		for _, s := range sums {
			s.ID = b.Addr + "/" + s.ID
			out = append(out, s)
		}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

// legRetryable classifies a sweep-leg failure. Transport failures and the
// failure modes a shard crash, restart, drain or overload produces — the job
// vanished (404), the daemon refused it (503), a bad gateway in a chained
// tier (502), an admission shed (429: replica queues differ, so another
// replica or a later walk may admit) — are retryable: results are canonical
// and deterministic, so re-running the leg on a surviving replica is
// byte-identical to the lost original. Any other HTTP status is a
// deterministic answer and re-dispatching would only repeat it.
func legRetryable(err error) bool {
	if connectionError(err) {
		return true
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusNotFound, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusTooManyRequests:
			return true
		}
	}
	return false
}

// errLegDeadline marks a sweep leg whose deadline budget ran out — while
// queued at the router or abandoned in flight. Distinct from failure: the
// work was refused or walked away from, not attempted and broken.
var errLegDeadline = errors.New("sweep leg deadline exceeded")

// tryLeg runs one dispatch+wait attempt of a sweep leg and reports whether
// a failure is worth re-dispatching. A non-zero deadline bounds the whole
// attempt: an exhausted budget surfaces as errLegDeadline — the in-flight
// job is abandoned (the shard finishes it and warms the caches; the sweep
// walks away), never retried.
func (r *Router) tryLeg(ctx context.Context, part service.Request, deadline time.Time) (*service.Result, service.SweepJobRef, bool, error) {
	j, b, coalesced, err := r.submitRouted(ctx, part, deadline)
	if err != nil {
		var shed *service.ShedError
		if errors.As(err, &shed) && !deadline.IsZero() && !time.Now().Before(deadline) {
			// The router's own admission check spent the budget: expired, not
			// failed, and retrying cannot un-spend it.
			return nil, service.SweepJobRef{}, false, fmt.Errorf("%w: %v", errLegDeadline, err)
		}
		return nil, service.SweepJobRef{}, legRetryable(err), err
	}
	ref := service.SweepJobRef{
		Config:      part.Config,
		JobID:       j.ID,
		Fingerprint: j.Fingerprint,
		Shard:       b.Name,
		Coalesced:   coalesced,
	}
	waitCtx, cancel := ctx, context.CancelFunc(func() {})
	if !deadline.IsZero() {
		waitCtx, cancel = context.WithDeadline(ctx, deadline)
	}
	done, err := b.Client.Wait(waitCtx, strings.TrimPrefix(j.ID, b.Addr+"/"))
	cancel()
	if err != nil {
		if waitCtx.Err() != nil && ctx.Err() == nil && !deadline.IsZero() {
			// The leg's own deadline fired mid-flight (not the caller's
			// context, not the shard): abandon the job where it runs.
			return nil, ref, false, fmt.Errorf("%w: job %s abandoned in flight", errLegDeadline, j.ID)
		}
		// Only a transport failure with the caller's context still live
		// indicts the shard; a caller that gave up does not.
		if connectionError(err) && ctx.Err() == nil {
			b.MarkFailed(err)
			b.breaker.ObserveOutcome(err)
		}
		return nil, ref, legRetryable(err), err
	}
	b.breaker.ObserveOutcome(nil)
	if done.State != service.StateDone {
		if done.State == service.StateExpired {
			// The shard's own admission timer expired the job while queued.
			return nil, ref, false, fmt.Errorf("%w on shard %s: %s", errLegDeadline, b.Name, done.Error)
		}
		// A daemon shutting down marks its unstarted backlog failed with
		// service.ErrShutdown; that work never ran and re-dispatches safely.
		retry := strings.Contains(done.Error, service.ErrShutdown.Error())
		return nil, ref, retry, fmt.Errorf("job failed: %s", done.Error)
	}
	return done.Result, ref, false, nil
}

// runLeg drives one sweep leg to completion through shard churn: bounded
// re-dispatch (SweepRetries), each attempt bounded only by the request's
// deadline. Each retry re-walks the replica chain, which the failed
// attempt's in-band exclusions and the breaker have already steered away
// from the dead or wedged shard — this is what lets a scatter-gather
// complete byte-identically through a mid-sweep crash.
func (r *Router) runLeg(ctx context.Context, part service.Request, deadline time.Time) (*service.Result, service.SweepJobRef, error) {
	retries := r.SweepRetries
	if retries < 0 {
		retries = 0
	}
	var lastErr error
	var lastRef service.SweepJobRef
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.count(func(c *RouterCounters) { c.LegRetries++ })
		}
		res, ref, retryable, err := r.tryLeg(ctx, part, deadline)
		if err == nil {
			return res, ref, nil
		}
		lastErr, lastRef = err, ref
		if !retryable || ctx.Err() != nil {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			// The budget ran out between attempts: expired, not failed.
			lastErr = fmt.Errorf("%w: retry budget outlived the deadline: %v", errLegDeadline, err)
			break
		}
	}
	return nil, lastRef, lastErr
}

// Stats aggregates the fleet view: per-shard stats (with queue occupancy
// gauges) under the router's counters, plus the flattened fleet sums.
func (r *Router) Stats(ctx context.Context) RouterStats {
	statuses := r.Map.Statuses()
	out := RouterStats{TotalShards: len(statuses)}
	r.mu.Lock()
	out.Router = r.stats
	r.mu.Unlock()
	agg := &out.Stats
	agg.SchemeVersion = search.FingerprintSchemeVersion
	agg.UptimeSeconds = time.Since(r.start).Seconds()
	for i := range statuses {
		st := &statuses[i]
		if !st.Healthy {
			continue
		}
		b, ok := r.Map.BackendByAddr(st.Addr)
		if !ok {
			continue
		}
		statStart := time.Now()
		ss, err := b.Client.Stats(ctx)
		b.breaker.Observe(time.Since(statStart), err)
		if err != nil {
			// A shard that stopped answering mid-pass is not healthy in
			// this snapshot: flip its status line so the Healthy flags,
			// HealthyShards (derived from them below) and the aggregate
			// sums (which skip it) stay consistent.
			if connectionError(err) {
				b.MarkFailed(err)
				st.Healthy = false
			}
			st.LastError = err.Error()
			continue
		}
		st.Stats = &ss
		agg.Add(ss)
	}
	// Sweep-handle gauges: the router's own async handles (scattered sweeps
	// live at this tier) on top of any direct-to-shard handles.
	r.sweeps.AddGauges(agg)
	out.Router.SweepsRouted = r.sweeps.Merged()
	out.ResultCache = r.Cache.Stats()
	for _, st := range statuses {
		if st.Healthy {
			out.HealthyShards++
		}
	}
	out.Shards = statuses
	out.Placement = r.Map.RecoveryReport()
	return out
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.Stats(req.Context()))
}

func (r *Router) handleShards(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.Map.Statuses())
}

// addShardRequest is the POST /v1/shards payload.
type addShardRequest struct {
	Addr string `json:"addr"`
}

func (r *Router) handleAddShard(w http.ResponseWriter, req *http.Request) {
	var ar addShardRequest
	if err := service.DecodeBody(w, req, &ar); err != nil || ar.Addr == "" {
		service.WriteError(w, http.StatusBadRequest, "body must be {\"addr\": \"host:port\"}")
		return
	}
	// Probe before admitting: an unreachable address (typo, daemon not up
	// yet) must be rejected here, with the definitive probe result in hand,
	// rather than admitted as a healthy routing target that every ~1/Nth
	// submission then has to fail over from.
	if err := r.Map.ProbeAddr(req.Context(), ar.Addr); err != nil {
		service.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("shard %s failed its join probe: %v", ar.Addr, err))
		return
	}
	if _, err := r.Map.Add(ar.Addr); err != nil {
		service.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	service.WriteJSON(w, http.StatusCreated, r.Map.Statuses())
}

// InheritorReport is one survivor's share of a drained shard's slice.
type InheritorReport struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Buckets is how much of the victim's fingerprint space this survivor
	// inherits (placement recovery-load units).
	Buckets int `json:"buckets"`
	// Eval/Candidates count the warm cache entries absorbed from the
	// victim's snapshot (zero with Error set when the push failed).
	Eval       int    `json:"eval_entries,omitempty"`
	Candidates int    `json:"candidate_entries,omitempty"`
	Error      string `json:"error,omitempty"`
}

// DrainReport is the DELETE /v1/shards response: what happened to the
// departing shard's warm slice before removal.
type DrainReport struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Drained reports a completed handoff: the victim stopped taking work
	// and its snapshot reached every inheritor. False means the shard was
	// removed anyway (already dead, or the handoff degraded — see Error).
	Drained       bool              `json:"drained"`
	SnapshotBytes int               `json:"snapshot_bytes,omitempty"`
	Inheritors    []InheritorReport `json:"inheritors,omitempty"`
	Error         string            `json:"error,omitempty"`
	// Placement is the rebuilt post-removal placement.
	Placement RecoveryReport `json:"placement"`
}

// Drain removes a shard from the fleet gracefully: flip it to draining (it
// stops accepting jobs and turns unhealthy to probes), pull its cache
// snapshot, push the snapshot to every shard inheriting part of its
// fingerprint slice (per the recovery placement), then drop it from the
// map. The handoff is best-effort — a victim that is already dead is simply
// removed — but when it completes, the inheritors serve the drained slice
// warm: their first post-drain hits replay from the absorbed entries
// instead of re-simulating.
func (r *Router) Drain(ctx context.Context, addr string) (DrainReport, error) {
	b, ok := r.Map.BackendByAddr(addr)
	if !ok {
		return DrainReport{}, fmt.Errorf("shard: %s not in the map", addr)
	}
	rep := DrainReport{Name: b.Name, Addr: b.Addr}

	// Inheritors come from the placement over the pre-removal membership —
	// the same table failover routing reads, so the warmed shards are
	// exactly the ones the victim's fingerprints will land on.
	inherit := r.Map.Placement().Inheritors(addr)

	handoff := func() error {
		if _, err := b.Client.Drain(ctx); err != nil {
			return fmt.Errorf("drain %s: %w", b.Name, err)
		}
		// The victim now refuses new work; take it out of routing in-band
		// too, so nothing races into it between here and removal.
		b.MarkFailed(nil)
		rc, err := b.Client.PullSnapshot(ctx)
		if err != nil {
			return fmt.Errorf("pull snapshot from %s: %w", b.Name, err)
		}
		snap, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return fmt.Errorf("pull snapshot from %s: %w", b.Name, err)
		}
		rep.SnapshotBytes = len(snap)
		ok := true
		for _, ib := range r.Map.Backends() {
			buckets, inherits := inherit[ib.Addr]
			if !inherits || ib.Addr == addr {
				continue
			}
			ir := InheritorReport{Name: ib.Name, Addr: ib.Addr, Buckets: buckets}
			if !ib.Healthy() {
				// A dead inheritor cannot absorb the slice — and does not
				// need to: routing already excludes it, so its share of the
				// victim's fingerprints fails over to the healthy replicas
				// that did get the snapshot, and it re-warms on demand if it
				// is ever readmitted. Skipping it is not a degraded handoff.
				ir.Error = "skipped: shard excluded from routing"
				rep.Inheritors = append(rep.Inheritors, ir)
				continue
			}
			info, err := ib.Client.PushSnapshot(ctx, snap)
			if err != nil {
				ir.Error = err.Error()
				ok = false
			} else {
				ir.Eval, ir.Candidates = info.Eval, info.Candidates
			}
			rep.Inheritors = append(rep.Inheritors, ir)
		}
		if !ok {
			return fmt.Errorf("snapshot handoff from %s degraded", b.Name)
		}
		return nil
	}
	if err := handoff(); err != nil {
		rep.Error = err.Error()
	} else {
		rep.Drained = true
	}

	if _, err := r.Map.Remove(addr); err != nil {
		return rep, err
	}
	drained := rep.Drained
	r.count(func(c *RouterCounters) {
		c.ShardsRemoved++
		if drained {
			c.ShardsDrained++
		}
	})
	rep.Placement = r.Map.RecoveryReport()
	return rep, nil
}

// handleRemoveShard serves DELETE /v1/shards: drain the addressed shard's
// slice to its inheritors and remove it. The response reports the handoff;
// removal succeeds even when the victim is already unreachable (Drained
// false, Error set) — the operator's intent is "out of the fleet", and a
// dead shard's slice re-warms on demand via failover.
func (r *Router) handleRemoveShard(w http.ResponseWriter, req *http.Request) {
	var ar addShardRequest
	if err := service.DecodeBody(w, req, &ar); err != nil || ar.Addr == "" {
		service.WriteError(w, http.StatusBadRequest, "body must be {\"addr\": \"host:port\"}")
		return
	}
	rep, err := r.Drain(req.Context(), ar.Addr)
	if err != nil {
		service.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	service.WriteJSON(w, http.StatusOK, rep)
}

// handleHealth reports the router healthy while at least one shard is
// admitted to routing — the same liveness contract a daemon serves, so
// health checks compose through the tier.
func (r *Router) handleHealth(w http.ResponseWriter, req *http.Request) {
	if len(r.Map.Healthy()) == 0 {
		service.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no healthy shards"})
		return
	}
	service.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
