package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/jobs"
	"repro/internal/search/pool"
)

// Async sweeps: a sweep is a first-class job with a durable handle. POST
// /v1/sweeps returns 202 plus a handle ID immediately; the handle collects
// per-architecture results incrementally as legs complete, so a client can
// consume partial Table II rows while the tail is still running, and the
// merged record — assembled in sweep order from exactly the per-leg Results
// the synchronous path would have gathered — is byte-identical to a
// synchronous single-node sweep. watosd and watos-router run this one
// lifecycle (SweepEngine) and differ only in the LegDispatcher: the daemon
// queues each leg as a local job, the router routes it across the fleet.
//
// Dispatch is SupraX-style critical-path-first: the merge barrier waits on
// the slowest leg, so the legs gating the most downstream work (estimated
// by the architecture's die count, which bounds the strategy space the leg
// explores) are submitted first at the highest within-class criticality,
// and light legs fill the remaining worker slots. Unlabelled sweeps ride
// the "sweep-leg" priority class, strictly below interactive traffic.

// SweepLeg is the live status of one scattered sweep part inside a handle.
type SweepLeg struct {
	Config      string `json:"config"`
	JobID       string `json:"job_id,omitempty"`
	Fingerprint string `json:"fingerprint"`
	// Criticality is the leg's dispatch weight (die count of its arch).
	Criticality int   `json:"criticality"`
	State       State `json:"state"`
	// Shard names the backend the leg ran on (router-filled).
	Shard     string `json:"shard,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// Result is the leg's completed record — the partial Table II row a
	// poller can consume before the sweep finishes.
	Result *Result `json:"result,omitempty"`
	// Degraded marks a leg the router could not complete (every replica
	// exhausted or the leg's deadline expired in flight) that was absorbed
	// instead of failing the sweep: the merged record carries the leg's
	// arch with a degraded status — or a cached prior result — and the
	// sweep still answers. Always false on a single daemon, which has no
	// replica set to degrade across.
	Degraded bool `json:"degraded,omitempty"`
}

// SweepStatus is the durable, pollable handle of an async sweep.
type SweepStatus struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total_legs"`
	// Completed counts terminal legs (done or failed).
	Completed   int        `json:"completed_legs"`
	Legs        []SweepLeg `json:"legs"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	FinishedAt  time.Time  `json:"finished_at,omitzero"`
	// Deadline is the sweep's absolute admission deadline (zero when the
	// request carried no deadline_ms): all legs spend from this one budget,
	// retries and failovers included.
	Deadline time.Time `json:"deadline,omitzero"`
	// Result is the merged record set, byte-identical (Canonical) to the
	// same sweep run synchronously on a single daemon. Set on done.
	Result *Result `json:"result,omitempty"`
}

// Terminal reports whether the sweep has finished (done or failed) — the
// jobs.Handle contract that starts the handle's retention clock.
func (s SweepStatus) Terminal() bool { return s.State.Terminal() }

// SweepSummary is the listing form of a sweep handle (no leg payloads).
type SweepSummary struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Fingerprint string    `json:"fingerprint"`
	Total       int       `json:"total_legs"`
	Completed   int       `json:"completed_legs"`
	SubmittedAt time.Time `json:"submitted_at"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
}

// cloneSweepStatus deep-copies a handle for reads outside the store lock:
// legs are mutated in place as they complete, so the slice must not be
// shared. Results are written once and read-only afterwards.
func cloneSweepStatus(s SweepStatus) SweepStatus {
	s.Legs = append([]SweepLeg(nil), s.Legs...)
	return s
}

// ToResult converts a terminal handle into the synchronous SweepResult
// payload — the shared conversion the server's sync path and the client's
// submit-and-wait path both use, so both render one representation.
func (s SweepStatus) ToResult() (SweepResult, error) {
	switch {
	case s.State == StateFailed || s.State == StateExpired:
		return SweepResult{}, errors.New("service: " + s.Error)
	case s.State != StateDone:
		return SweepResult{}, fmt.Errorf("service: sweep %s still %s", s.ID, s.State)
	}
	out := SweepResult{Fingerprint: s.Fingerprint, Result: s.Result}
	for _, leg := range s.Legs {
		out.Jobs = append(out.Jobs, SweepJobRef{
			Config:      leg.Config,
			JobID:       leg.JobID,
			Fingerprint: leg.Fingerprint,
			Shard:       leg.Shard,
			Coalesced:   leg.Coalesced,
			Degraded:    leg.Degraded,
		})
	}
	return out, nil
}

// LegCriticality estimates how much downstream merge work a sweep leg
// gates: the die count of its architecture bounds the (TP, PP) strategy
// space the leg explores, so heavier-die legs run longest and the merge
// barrier waits on them. Dispatching them first (LPT order) minimizes the
// barrier's wait; unknown configs weigh zero and fill idle slots last.
func LegCriticality(config string) int {
	cands, err := cliutil.ArchCandidates(config)
	if err != nil || len(cands) != 1 {
		return 0
	}
	return cands[0].Dies()
}

// sweepDispatchOrder returns leg indices in dispatch order: criticality
// descending, sweep order ascending on ties — deterministic critical-path-
// first submission.
func sweepDispatchOrder(legs []SweepLeg) []int {
	order := make([]int, len(legs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return legs[order[a]].Criticality > legs[order[b]].Criticality
	})
	return order
}

// LegDispatcher runs one sweep leg on its tier: the daemon queues it as a
// local job, the router walks the leg's replica set. It is called from
// SweepEngine.Start in dispatch order with the leg's request — priority
// already clamped, criticality set — and the sweep's absolute deadline
// (zero when the request carried none). It must call fold exactly once with
// the leg's terminal record, from any goroutine (before returning, for a
// leg it can answer at once); fold also takes a non-terminal record, which
// publishes the job the leg was queued as. A non-nil error is a refusal at
// launch: it fails the sweep, and Start returns it without launching the
// remaining legs.
type LegDispatcher func(part Request, deadline time.Time, fold func(SweepLeg)) error

// SweepEngine is the async sweep lifecycle both serving tiers run: it mints
// the durable handle, dispatches the legs critical-path-first, folds each
// terminal leg into the handle, merges the gathered records, and serves the
// three /v1/sweeps routes. A tier differs only in its Dispatch.
type SweepEngine struct {
	// Dispatch runs one leg (required).
	Dispatch LegDispatcher
	// Admit, when set, may refuse a sweep before its handle is minted.
	Admit func() error
	// Retention bounds the handle store. It is read once, on first use, so
	// a tier may set its retention knobs after constructing the engine.
	Retention func() jobs.Options

	once   sync.Once
	store  *jobs.Store[SweepStatus]
	merged atomic.Uint64
}

// handles returns the handle store, building it on first use.
func (e *SweepEngine) handles() *jobs.Store[SweepStatus] {
	e.once.Do(func() {
		var opts jobs.Options
		if e.Retention != nil {
			opts = e.Retention()
		}
		opts.Prefix = "swp"
		e.store = jobs.NewStore(opts, cloneSweepStatus)
	})
	return e.store
}

// Start expands a sweep request, registers a durable handle, and dispatches
// the legs — heaviest first — returning the handle immediately. Legs
// complete in the background; Lookup polls the handle, Wait blocks on it.
func (e *SweepEngine) Start(req Request) (SweepStatus, error) {
	norm, parts, err := ExpandSweep(req)
	if err != nil {
		return SweepStatus{}, err
	}
	if e.Admit != nil {
		if err := e.Admit(); err != nil {
			return SweepStatus{}, err
		}
	}
	legs := make([]SweepLeg, len(parts))
	for i, p := range parts {
		legs[i] = SweepLeg{
			Config:      p.Config,
			Fingerprint: p.Fingerprint(),
			Criticality: LegCriticality(p.Config),
			State:       StateQueued,
		}
	}
	now := time.Now()
	// The deadline budget is absolute from here: every leg spends from it,
	// retries and failovers included.
	deadline := norm.Deadline(now)
	store := e.handles()
	id, _ := store.Create(func(id string) SweepStatus {
		return SweepStatus{
			ID:          id,
			State:       StateRunning,
			Fingerprint: norm.Fingerprint(),
			Total:       len(parts),
			Legs:        legs,
			SubmittedAt: now,
			Deadline:    deadline,
		}
	})

	for _, i := range sweepDispatchOrder(legs) {
		part := parts[i]
		// Legs ride the sweep's requested class end-to-end: an interactive
		// sweep's legs overtake queued bulk work, a background sweep's legs
		// yield to everything. Only an unlabelled sweep defaults to the
		// bulk sweep-leg class — for legs, "no label" means batch work, not
		// the somebody-is-waiting default a single job gets. The class is
		// clamped to the demand range: a "prefetch"-labelled sweep would
		// put its legs in the speculative class, where demand arrival
		// cancels them and breaks the merge barrier — legs raise to
		// sweep-leg instead (and nothing above interactive exists to raise
		// to).
		if part.Priority == "" || part.Priority == pool.Prefetch.String() {
			part.Priority = pool.SweepLeg.String()
		}
		part.Criticality = legs[i].Criticality
		fold := func(leg SweepLeg) { e.fold(id, i, leg) }
		if err := e.Dispatch(part, deadline, fold); err != nil {
			e.fail(id, fmt.Sprintf("sweep part %s: %v", part.Config, err))
			st, _ := store.Get(id)
			return st, fmt.Errorf("service: sweep part %s: %w", part.Config, err)
		}
	}
	return store.Get(id)
}

// fold records a leg report in the handle. A non-terminal report only
// publishes the leg's job; a terminal one completes the leg, and the last
// leg of a still-running sweep triggers the merge. The Update that takes
// the handle terminal wakes its waiters. Degraded legs are terminal without
// failing the sweep; one that carries no result merges as a MergeSweep
// marker row, never byte-identical to a healthy sweep.
func (e *SweepEngine) fold(id string, idx int, leg SweepLeg) {
	var results []*Result // set once the last leg lands: the merge is due
	var configs, degradedErrs []string
	err := e.store.Update(id, func(st *SweepStatus) {
		dst := &st.Legs[idx]
		if dst.State.Terminal() {
			return // duplicate completion (failover race); first wins
		}
		dst.State = leg.State
		if leg.JobID != "" {
			dst.JobID = leg.JobID
		}
		dst.Shard, dst.Coalesced, dst.Degraded, dst.Error = leg.Shard, leg.Coalesced, leg.Degraded, leg.Error
		if !leg.State.Terminal() {
			return
		}
		st.Completed++
		switch {
		case leg.State == StateDone:
			dst.Result = leg.Result
		case leg.Degraded:
			// Absorbed: the sweep keeps running and merges around this leg.
		case st.State == StateRunning:
			// A leg killed by its own deadline surfaces as deadline_exceeded
			// on the sweep too — budget exhaustion, not a fault. Any other
			// leg failure fails the sweep.
			if leg.State == StateExpired {
				st.State = StateExpired
				st.Error = fmt.Sprintf("sweep part %s deadline exceeded: %s", dst.Config, leg.Error)
			} else {
				st.State = StateFailed
				st.Error = fmt.Sprintf("sweep part %s failed: %s", dst.Config, leg.Error)
			}
			st.FinishedAt = time.Now()
		}
		if st.State == StateRunning && st.Completed == st.Total {
			results = make([]*Result, st.Total)
			configs = make([]string, st.Total)
			degradedErrs = make([]string, st.Total)
			for i, l := range st.Legs {
				results[i], configs[i] = l.Result, l.Config
				if l.Degraded && l.Result == nil {
					degradedErrs[i] = l.Error
				}
			}
		}
	})
	if err != nil || results == nil {
		return // an evicted handle has nothing to fold into
	}
	merged, mergeErr := MergeSweep(results, configs, degradedErrs)
	e.store.Update(id, func(st *SweepStatus) {
		if mergeErr != nil {
			st.State = StateFailed
			st.Error = mergeErr.Error()
		} else {
			st.State = StateDone
			st.Result = merged
		}
		st.FinishedAt = time.Now()
	})
	if mergeErr == nil {
		e.merged.Add(1)
	}
}

// fail marks the handle failed if it is still running.
func (e *SweepEngine) fail(id, msg string) {
	e.store.Update(id, func(st *SweepStatus) {
		if st.State == StateRunning {
			st.State = StateFailed
			st.Error = msg
			st.FinishedAt = time.Now()
		}
	})
}

// Lookup returns a snapshot of a sweep handle: jobs.ErrGone for an evicted
// handle (HTTP 410), jobs.ErrUnknown for a never-issued ID (404).
func (e *SweepEngine) Lookup(id string) (SweepStatus, error) {
	return e.handles().Get(id)
}

// Wait blocks until the handle goes terminal or ctx ends.
func (e *SweepEngine) Wait(ctx context.Context, id string) (SweepStatus, error) {
	return e.handles().Wait(ctx, id)
}

// Sweep is the synchronous facade: Start, Wait for the merge, and render
// the SweepResult payload. One code path produces both the 202-handle flow
// and this blocking flow, which is what keeps the merged Canonical
// byte-identical between them.
func (e *SweepEngine) Sweep(ctx context.Context, req Request) (SweepResult, error) {
	st, err := e.Start(req)
	if err != nil {
		return SweepResult{}, err
	}
	if st, err = e.Wait(ctx, st.ID); err != nil {
		return SweepResult{}, err
	}
	return st.ToResult()
}

// List returns the retained sweep handles, oldest first.
func (e *SweepEngine) List() []SweepSummary {
	out := []SweepSummary{}
	e.handles().Each(func(id string, st SweepStatus) {
		out = append(out, SweepSummary{
			ID:          st.ID,
			State:       st.State,
			Fingerprint: st.Fingerprint,
			Total:       st.Total,
			Completed:   st.Completed,
			SubmittedAt: st.SubmittedAt,
			FinishedAt:  st.FinishedAt,
		})
	})
	return out
}

// Merged counts the sweeps merged successfully.
func (e *SweepEngine) Merged() uint64 { return e.merged.Load() }

// AddGauges adds the handle-store gauges to st. SweepsRetained counts every
// handle the store holds, running or terminal — the population the
// retention cap bounds.
func (e *SweepEngine) AddGauges(st *Stats) {
	store := e.handles()
	store.Each(func(_ string, sw SweepStatus) {
		switch sw.State {
		case StateDone:
			st.SweepsDone++
		case StateFailed, StateExpired:
			st.SweepsFailed++
		default:
			st.SweepsRunning++
		}
		st.SweepsRetained++
	})
	st.SweepsEvicted += store.Evicted()
}

// Routes registers POST /v1/sweeps, GET /v1/sweeps and GET /v1/sweeps/{id}.
// refused renders a Start refusal with the tier's status split.
func (e *SweepEngine) Routes(mux *http.ServeMux, refused func(http.ResponseWriter, error)) {
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := DecodeBody(w, r, &req); err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		// Pre-validate so a bad request stays 400 on both flows; a refusal
		// past validation is the tier's to render.
		if _, _, err := ExpandSweep(req); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		st, err := e.Start(req)
		if err != nil {
			refused(w, err)
			return
		}
		if r.URL.Query().Get("wait") == "" {
			WriteJSON(w, http.StatusAccepted, st)
			return
		}
		// Synchronous compatibility flow: block until the merge, or until
		// the client goes away.
		st, err = e.Wait(r.Context(), st.ID)
		var res SweepResult
		if err == nil {
			res, err = st.ToResult()
		}
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, e.List())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, err := e.Lookup(id)
		if err != nil {
			WriteError(w, LookupStatus(err), "sweep "+id+": "+err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, st)
	})
}
