package service

import (
	"context"
	"errors"
	"strings"
	"time"

	"repro/internal/cliutil"
)

// Sweep support: a Table II-style architecture sweep decomposes into one
// single-architecture request per candidate, because core.Explore evaluates
// candidates independently and the canonical exploration record is the
// concatenation of the per-architecture records in sweep order. That makes a
// sweep the unit of scatter-gather for the sharded tier — each architecture
// routes to its fingerprint's shard — while MergeSweep reconstitutes a
// Result byte-identical to the one sweep job run on a single daemon.
//
// Contract on infeasible architectures: a scattered sweep requires every
// part to succeed — one infeasible architecture fails the whole sweep with
// that part's error. This deliberately differs from an in-process
// core.Explore, which tolerates per-architecture failures and reports the
// best feasible candidate: a failed part has no Result, so its per-arch
// error line cannot be reconstructed byte-identically, and a loud error
// beats a silently divergent record. In practice the distinction is latent —
// every zoo model at CLI-reachable workloads is either feasible on all
// Table II configurations or on none (where both paths fail alike).

// SweepJobRef locates one architecture's job inside a scattered sweep.
type SweepJobRef struct {
	// Config is the architecture restriction of this part.
	Config string `json:"config"`
	// JobID is the job the part ran as (shard-namespaced when routed).
	JobID string `json:"job_id"`
	// Fingerprint is the part's canonical request fingerprint — its routing
	// and dedup key.
	Fingerprint string `json:"fingerprint"`
	// Shard names the backend the part ran on (router-filled; empty on a
	// single daemon).
	Shard string `json:"shard,omitempty"`
	// Coalesced reports whether the part piggybacked on an identical
	// in-flight job instead of starting a fresh execution.
	Coalesced bool `json:"coalesced,omitempty"`
	// Degraded marks a part the router absorbed instead of failing the
	// sweep (replica set exhausted / in-flight deadline expiry): its row
	// in the merged record is a degraded placeholder or a cached prior
	// result. See MergeSweep.
	Degraded bool `json:"degraded,omitempty"`
}

// SweepResult is the POST /v1/sweeps payload: the merged sweep outcome plus
// the per-architecture jobs it was gathered from.
type SweepResult struct {
	// Fingerprint identifies the normalized sweep request.
	Fingerprint string        `json:"fingerprint"`
	Jobs        []SweepJobRef `json:"jobs"`
	// Result is the merged record set, byte-identical (Canonical) to the
	// same sweep run as one job.
	Result *Result `json:"result"`
}

// ExpandSweep normalizes a sweep request and splits it into one
// single-architecture request per swept candidate, in sweep order. Every
// part is already normalized (Normalize is idempotent and Config-pointwise),
// so part fingerprints are valid routing keys.
func ExpandSweep(req Request) (norm Request, parts []Request, err error) {
	norm, err = req.Normalize()
	if err != nil {
		return norm, nil, err
	}
	configs, err := cliutil.SweepConfigs(norm.Config)
	if err != nil {
		return norm, nil, err
	}
	parts = make([]Request, len(configs))
	for i, cfg := range configs {
		p := norm
		p.Config = cfg
		parts[i] = p
	}
	return norm, parts, nil
}

// MergeSweep recombines per-architecture Results (in sweep order) into the
// Result of the equivalent single-job sweep: the canonical records
// concatenate, the per-architecture summaries concatenate, and the summary
// fields come from the winning part under core.Explore's rule (first
// strictly-highest throughput). configs names every leg. A leg that could
// not be served (replica set exhausted, in-flight deadline expiry) is a nil
// part with degradedErr[i] saying why: it merges as a per-arch "degraded:
// ..." marker row, the shape core.Explore gives an infeasible architecture.
// Such a record is NOT byte-identical to a healthy sweep and must never
// enter a completed-result cache (callers flag it through the Degraded
// markers); with no servable part at all, every row is a marker and the
// summary fields stay zero. A nil part with no reason fails the merge.
func MergeSweep(parts []*Result, configs, degradedErr []string) (*Result, error) {
	if len(parts) == 0 {
		return nil, errors.New("service: empty sweep")
	}
	var best *Result
	for i, p := range parts {
		switch {
		case p == nil && degradedErr[i] == "":
			return nil, errors.New("service: sweep part missing its result")
		case p != nil && (best == nil || p.Throughput > best.Throughput):
			best = p
		}
	}
	var out Result
	if best != nil {
		out = *best
	}
	out.PerArch = nil
	// The merged record is the legs' records in sweep order, joined into
	// one buffer of their summed length.
	records := make([]string, len(parts))
	for i, p := range parts {
		if p == nil {
			msg := "degraded: " + degradedErr[i]
			out.PerArch = append(out.PerArch, ArchSummary{Name: configs[i], Status: msg})
			records[i] = "arch=" + configs[i] + " err=" + msg + "\n"
			continue
		}
		out.PerArch = append(out.PerArch, p.PerArch...)
		records[i] = p.Canonical
	}
	out.Canonical = strings.Join(records, "")
	return &out, nil
}

// Sweep scatters a sweep request into per-architecture jobs on this daemon
// and gathers them into one merged record set: the synchronous facade over
// the async handle flow (SweepEngine.Sweep). Parts submit through the normal
// job path at sweep-leg priority, so identical in-flight architectures
// coalesce, every part lands in the shared caches, and interactive jobs
// overtake the legs. A part that fails (or a backlog rejection) fails the
// whole sweep.
func (s *Server) Sweep(req Request) (SweepResult, error) {
	return s.sweeps.Sweep(context.Background(), req)
}

// dispatchLeg is the daemon's LegDispatcher: the leg is an ordinary job on
// this daemon's queue, and one goroutine per leg blocks in the job store's
// Wait — the only wake signal, so no polling — to fold it in. The
// leg's own DeadlineMS budget is admitted by Submit, as for any job.
func (s *Server) dispatchLeg(part Request, _ time.Time, fold func(SweepLeg)) error {
	j, coalesced, err := s.Submit(part)
	if err != nil {
		return err
	}
	fold(SweepLeg{State: StateQueued, JobID: j.ID, Coalesced: coalesced})
	go func() {
		done, err := s.Wait(j.ID)
		if err != nil {
			done = Job{ID: j.ID, State: StateFailed, Error: err.Error()}
		}
		fold(SweepLeg{State: done.State, JobID: done.ID, Coalesced: coalesced, Result: done.Result, Error: done.Error})
	}()
	return nil
}
