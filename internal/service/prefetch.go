package service

import (
	"time"

	"repro/internal/cliutil"
	"repro/internal/prefetch"
	"repro/internal/search/pool"
)

// Speculative cache warming, the service half: the daemon records every
// demand request in a bounded locality trace (internal/prefetch), and —
// when Options.Prefetch is on — each completed demand job predicts its
// sweep neighbors in configuration space, ranks them by how often they
// historically followed this request, and pre-evaluates the top few at
// prefetch priority whenever the queue is idle. Predictions canonicalize
// through Request.Normalize and Request.Fingerprint, the exact path demand
// requests take, so a prefetched execution is byte-identical to the demand
// evaluation it pre-empts — it IS the demand evaluation, run early.
//
// The lane never competes with demand work: admission requires an idle
// queue (pool.Queue.IdleForPrefetch), the submission that admits demand
// work first stops every queued speculation no demand duplicate has adopted
// (StateCancelled, see enqueueLocked), and the class is excluded from
// admission budgets, estimated-wait shedding and the demand job counters.

// TracePoint is the decoded coordinate form of a traced request — the
// human-readable half of a trace entry on GET /v1/trace. The fingerprint
// remains the identity; the point is for operators and the bench replay.
type TracePoint struct {
	Model  string `json:"model"`
	Config string `json:"config,omitempty"`
	TP     int    `json:"tp,omitempty"`
	PP     int    `json:"pp,omitempty"`
	Batch  int    `json:"batch,omitempty"`
	Seq    int    `json:"seq,omitempty"`
	GA     bool   `json:"ga,omitempty"`
}

// TracePoint decodes a normalized request into its sweep coordinates.
func (r Request) TracePoint() TracePoint {
	return TracePoint{
		Model:  r.Model,
		Config: r.Config,
		TP:     r.FixedTP,
		PP:     r.FixedPP,
		Batch:  r.Batch,
		Seq:    r.Seq,
		GA:     r.UseGA,
	}
}

// TraceInfo is the GET /v1/trace payload.
type TraceInfo struct {
	Entries []prefetch.Entry[TracePoint] `json:"entries"`
	Len     int                          `json:"len"`
}

// Trace snapshots the request-trace ring, oldest first.
func (s *Server) Trace() TraceInfo {
	entries := s.trace.Entries()
	return TraceInfo{Entries: entries, Len: len(entries)}
}

// SweepNeighbors enumerates the request's neighbors in configuration space,
// nearest first: adjacent parallelism points (TP halved and doubled, PP one
// step either way — the points a user stepping through a sweep reaches
// next), then the sibling architecture rows of the Table II sweep in sweep
// order. Every neighbor is normalized and fingerprinted through the same
// path as a real request (infeasible mutations drop out at Normalize), so
// the returned requests are valid prefetch submissions whose cache entries
// are byte-identical to demand evaluations. Scheduling metadata is cleared;
// the caller assigns the prefetch class. The enumeration order is the
// cold-start ranking — learned locality only ever re-orders it.
func (r Request) SweepNeighbors() []Request {
	base := r
	base.Priority, base.Criticality, base.DeadlineMS = "", 0, 0
	self := r.Fingerprint()
	seen := map[string]bool{self: true}
	var out []Request
	add := func(mutate func(*Request)) {
		n := base
		mutate(&n)
		norm, err := n.Normalize()
		if err != nil {
			return
		}
		if fp := norm.Fingerprint(); !seen[fp] {
			seen[fp] = true
			out = append(out, norm)
		}
	}
	if r.FixedTP > 1 {
		add(func(n *Request) { n.FixedTP = r.FixedTP / 2 })
	}
	if r.FixedTP > 0 {
		add(func(n *Request) { n.FixedTP = r.FixedTP * 2 })
	}
	if r.FixedPP > 1 {
		add(func(n *Request) { n.FixedPP = r.FixedPP - 1 })
	}
	if r.FixedPP > 0 {
		add(func(n *Request) { n.FixedPP = r.FixedPP + 1 })
	}
	if r.Config != "" {
		if siblings, err := cliutil.SweepConfigs(""); err == nil {
			for _, cfg := range siblings {
				if cfg == r.Config {
					continue
				}
				add(func(n *Request) { n.Config = cfg })
			}
		}
	}
	return out
}

// submitPrefetchLocked is the speculative side entrance of Submit (s.mu
// held, draining already refused): admission requires idle capacity and a
// fingerprint not already warm or in flight, and the next demand admission
// cancels the job while it is still queued. Speculative traffic is excluded
// from the demand counters (JobsSubmitted, JobsCoalesced, JobsShed,
// est-wait shedding, class budgets) — its whole budget discipline is "only
// when idle, never in the way".
func (s *Server) submitPrefetchLocked(norm Request, fp string, now time.Time) (Job, bool, error) {
	if j, ok := s.inflight[fp]; ok {
		// The prediction is already being evaluated (demand got there
		// first, or a duplicate prediction). Piggyback without touching
		// the demand coalescing counters, and never promote — speculation
		// raises nothing.
		rec, err := s.records.Get(j.id)
		return rec, true, err
	}
	if _, warm := s.warmed[fp]; warm {
		return Job{}, false, ErrBusy // already warm: nothing to gain
	}
	if !s.queue.IdleForPrefetch() {
		return Job{}, false, ErrBusy // demand is using the capacity
	}
	// Speculation carries no deadline: demand arrival, not a budget, is
	// what cancels it.
	rec, err := s.enqueueLocked(norm, fp, now, time.Time{})
	if err != nil {
		return Job{}, false, ErrBusy
	}
	s.stats.PrefetchIssued++
	return rec, false, nil
}

// markWarmedLocked records a completed execution in the warm-fingerprint
// table (FIFO-bounded), attributing it to the lane that ran it. A demand
// completion overwrites a prefetch attribution only in the sense that the
// entry already existed — first writer wins, so a prefetched entry keeps
// its attribution when demand re-executes the same fingerprint.
func (s *Server) markWarmedLocked(fp string, byPrefetch bool) {
	if _, ok := s.warmed[fp]; ok {
		return
	}
	if len(s.warmOrder) >= warmedCap {
		evict := s.warmOrder[0]
		s.warmOrder = s.warmOrder[1:]
		delete(s.warmed, evict)
	}
	s.warmed[fp] = &warmRecord{byPrefetch: byPrefetch}
	s.warmOrder = append(s.warmOrder, fp)
}

// noteWarmHitLocked credits a fresh demand submission whose fingerprint is
// already warm: HitsDemand or HitsPrefetch by attribution, plus
// PrefetchUseful the first time a prefetched entry is demanded.
func (s *Server) noteWarmHitLocked(fp string) {
	rec, ok := s.warmed[fp]
	if !ok {
		return
	}
	if rec.byPrefetch {
		s.stats.HitsPrefetch++
		if !rec.usedByDemand {
			rec.usedByDemand = true
			s.stats.PrefetchUseful++
		}
	} else {
		s.stats.HitsDemand++
	}
}

// PrefetchNeighbors is the prediction step both tiers run after a demand
// request: enumerate prev's sweep neighbors, rank them by the locality
// trace has learned, and offer each to issue until fanout (default 3) of
// them were issued. issue reports whether a neighbor spent one unit of the
// fanout; a refusal (busy capacity, already warm or in flight) is silent —
// speculation that cannot run for free simply doesn't run.
func PrefetchNeighbors(trace *prefetch.Trace[TracePoint], prev Request, prevFP string, fanout int, issue func(req Request, fp string) bool) {
	if fanout <= 0 {
		fanout = 3
	}
	neighbors := prev.SweepNeighbors()
	byFP := make(map[string]Request, len(neighbors))
	fps := make([]string, len(neighbors))
	for i, n := range neighbors {
		fp := n.Fingerprint()
		fps[i] = fp
		byFP[fp] = n
	}
	issued := 0
	for _, fp := range trace.Rank(prevFP, fps) {
		if issued >= fanout {
			return
		}
		if issue(byFP[fp], fp) {
			issued++
		}
	}
}

// predictAndPrefetch runs after a demand job completes and feeds the top
// PrefetchFanout predictions into the idle-gated lane.
func (s *Server) predictAndPrefetch(prev Request, prevFP string) {
	PrefetchNeighbors(s.trace, prev, prevFP, s.opts.PrefetchFanout, func(req Request, _ string) bool {
		req.Priority = pool.Prefetch.String()
		_, coalesced, err := s.Submit(req)
		return err == nil && !coalesced
	})
}
