// Package sched implements the early-pruning central scheduler of §IV-A
// (Alg 1): it iterates feasible (TP, PP) factorisations of the
// model-parallel die budget, prunes candidates whose resident model state
// (modelP) cannot fit the aggregate memory, delegates memory-pressured
// configurations to the recomputation and memory schedulers, and evaluates
// each surviving strategy with the Evaluator to select the configuration
// with the highest throughput.
//
// Candidate evaluation runs on the shared concurrent runtime of
// internal/search: independent (TP, PP, collective) candidates, each a
// whole search, fan out over pool.Map, and strategy evaluations are
// memoized in the shared LRU cache. A candidate's own search — placement,
// GA, allocation — runs sequentially. Results are deterministic for a fixed
// Options.Seed regardless of Options.Workers — each candidate derives its
// own RNG stream and pool.Map collects results in candidate order.
package sched

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/lru"
	"repro/internal/memalloc"
	"repro/internal/memory"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/pipeline"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/recompute"
	"repro/internal/search"
	"repro/internal/search/pool"
	"repro/internal/sim"
)

// Options configure the search.
type Options struct {
	// MaxTP caps the tensor-parallel degree (0 = number of dies).
	MaxTP int
	// Collectives lists the TP collective algorithms to consider;
	// nil = {BiRing}.
	Collectives []collective.Algorithm
	// DisableRecompute turns the recomputation scheduler off (ablation /
	// Fig 15a "w/o recomputation").
	DisableRecompute bool
	// DisableMemScheduler turns location-aware placement and DRAM
	// allocation off (serpentine placement, ablation +M).
	DisableMemScheduler bool
	// DisablePruning turns Alg 1's early pruning off (ablation).
	DisablePruning bool
	// NaiveRecompute replaces GCMR with the local-only baseline.
	NaiveRecompute bool
	// FixedTP/FixedPP pin the parallelism (baseline reproduction): both
	// set yield the single (FixedTP, FixedPP) candidate; one alone fixes
	// that degree and searches the other (see factorisations).
	FixedTP, FixedPP int
	// PipelineWafers spreads the PP stages over this many wafers of a
	// multi-wafer node (§VI-F); 0/1 keeps the pipeline on one wafer.
	PipelineWafers int
	// UseGA enables the genetic-algorithm global optimizer (§IV-D) on top
	// of the greedy GCMR + memory-scheduler solution.
	UseGA bool
	// GAOmega is the elitism proportion ω (Fig 24b); default 0.5.
	GAOmega float64
	// GAGenerations bounds the GA search (default 60).
	GAGenerations int
	// Seed drives the placement optimiser and GA.
	Seed int64
	// Workers is how many candidates are explored at once: 0 = auto
	// (GOMAXPROCS), 1 = strictly sequential on the calling goroutine (the
	// reproducible single-threaded mode for ablations). Each candidate's
	// own search runs sequentially. Results are identical for every worker
	// count.
	Workers int
	// DisableCache bypasses the shared evaluation memoization cache.
	DisableCache bool
}

// candidateCacheCapacity bounds the candidate memo. A Candidate is much
// heavier than a bare sim.Report (placement regions, recompute plan,
// allocations, per-stage detail, a per-die memory map — tens of KB on a
// large wafer), so the bound is tighter than search.DefaultCacheCapacity
// to keep worst-case residency around tens of MB.
const candidateCacheCapacity = 1024

// candidateCache memoizes whole explored candidates across Search calls:
// strategy construction (GCMR, placement optimisation, GA) dominates a
// candidate's cost, so caching only the final evaluation would leave most
// of the repeated work on the table. Cached candidates (and the strategies
// they reference) are shared and must be treated as read-only.
var candidateCache = lru.New[Candidate](candidateCacheCapacity)

// CacheStats reports the candidate-level memoization counters.
func CacheStats() search.CacheStats { return candidateCache.Stats() }

// ResetCache clears the candidate-level memoization cache (benchmarks and
// tests that measure cold-start behaviour).
func ResetCache() { candidateCache.Reset() }

// candidateKey is the canonical fingerprint of one exploration point: the
// wafer architecture, model, workload, predictor identity, (TP, PP)
// factorisation, collective algorithm, every result-affecting option, and
// the candidate's derived RNG seed (placement/GA stream). Worker count and
// cache policy are excluded — results are invariant to both.
func candidateKey(w hw.WaferConfig, spec model.Spec, work model.Workload, pred predictor.Predictor,
	tp, pp int, coll collective.Algorithm, opts Options, candSeed int64) string {
	norm := opts
	norm.Workers = 0
	norm.DisableCache = false
	return fmt.Sprintf("w=%+v|s=%+v|wl=%+v|p=%d|tp=%d|pp=%d|c=%d|o=%+v|cs=%d",
		w, spec, work, search.PredictorID(pred), tp, pp, coll, norm, candSeed)
}

// Candidate records one explored configuration.
type Candidate struct {
	TP, PP     int
	Collective collective.Algorithm
	Report     sim.Report
	Strategy   sim.Strategy
	Pruned     bool
	Err        error
}

// Result is the scheduler output.
type Result struct {
	Best *Candidate
	// Explored lists every configuration visited, including pruned and
	// failed ones (the framework's "Exploration Records").
	Explored []Candidate
	// PrunedCount is the number of candidates rejected by early pruning.
	PrunedCount int
}

// Search runs Alg 1 for the model/workload on the wafer.
func Search(w hw.WaferConfig, spec model.Spec, work model.Workload, pred predictor.Predictor, opts Options) (*Result, error) {
	if err := work.Validate(); err != nil {
		return nil, err
	}
	m := mesh.New(w)
	dies := m.Dies()
	maxTP := opts.MaxTP
	if maxTP <= 0 || maxTP > dies {
		maxTP = dies
	}
	collectives := opts.Collectives
	if len(collectives) == 0 {
		collectives = []collective.Algorithm{collective.BiRing}
	}

	res := &Result{}
	// Alg 1 line 1–2: prune when modelP exceeds the wafer's aggregate
	// memory outright.
	if !opts.DisablePruning && !memory.FitsModelP(spec, w.TotalDies(), w.DieDRAM()) {
		return nil, fmt.Errorf("sched: modelP (%.0f GB) exceeds node memory (%.0f GB)",
			spec.ModelPBytes()/1e9, float64(w.TotalDies())*w.DieDRAM()/1e9)
	}

	// Enumerate the candidate (TP, PP, collective) jobs up front so they
	// can fan out with pool.Map in a stable order.
	type job struct {
		tp, pp int
		coll   collective.Algorithm
	}
	var jobs []job
	for _, tpPP := range factorisations(dies, maxTP, spec.Layers, opts) {
		tp, pp := tpPP[0], tpPP[1]
		for _, coll := range collectives {
			// The 2D-mesh communication requirement (Alg 1 line 4):
			// TP instances must have an even die count for ring pairing
			// unless the collective supports odd groups.
			if tp > 2 && tp%2 == 1 && coll != collective.RingBiOdd && coll != collective.TACOS {
				continue
			}
			jobs = append(jobs, job{tp: tp, pp: pp, coll: coll})
		}
	}

	ev := search.New(opts.DisableCache)
	res.Explored = pool.Map(opts.Workers, len(jobs), func(i int) Candidate {
		j := jobs[i]
		// Each candidate owns a deterministic RNG stream derived from the
		// search seed and its job index, so the result is byte-identical
		// for every worker count.
		candSeed := opts.Seed + 1 + int64(i)*1000003
		// Candidate-level memoization: the full exploration of one
		// (TP, PP, collective) point — recompute planning, placement
		// optimisation, GA refinement and evaluation — is a pure function
		// of its fingerprint, so repeated searches (baselines, ablations,
		// figure points sharing configurations) skip it entirely.
		var key string
		if !opts.DisableCache {
			key = candidateKey(w, spec, work, pred, j.tp, j.pp, j.coll, opts, candSeed)
			if cand, ok := candidateCache.Get(key); ok {
				return cand
			}
		}
		rng := rand.New(rand.NewSource(candSeed))
		cand := explore(w, m, spec, work, pred, j.tp, j.pp, j.coll, opts, rng, ev)
		if !opts.DisableCache {
			candidateCache.Put(key, cand)
		}
		return cand
	})
	for i := range res.Explored {
		cand := res.Explored[i]
		if cand.Pruned {
			res.PrunedCount++
			continue
		}
		if cand.Err != nil {
			continue
		}
		if res.Best == nil || cand.Report.Throughput > res.Best.Report.Throughput {
			c := cand
			res.Best = &c
		}
	}
	if res.Best == nil {
		// Return the exploration records alongside the error so callers
		// can inspect why every candidate failed.
		return res, fmt.Errorf("sched: no feasible configuration for %s on %s%s",
			spec.Name, w.Name, firstFailure(res.Explored))
	}
	return res, nil
}

func firstFailure(cands []Candidate) string {
	for _, c := range cands {
		if c.Err != nil {
			return " (first failure: " + c.Err.Error() + ")"
		}
	}
	return ""
}

// factorisations enumerates (tp, pp) pairs with tp·pp ≤ dies (Alg 1 line 4).
// A lone pin fixes its own degree and searches the other: FixedTP keeps
// every pp the enumeration gives that tp, FixedPP every power-of-two
// tp ≤ maxTP with tp·FixedPP ≤ dies and FixedPP ≤ layers.
func factorisations(dies, maxTP, layers int, opts Options) [][2]int {
	if opts.FixedTP > 0 && opts.FixedPP > 0 {
		return [][2]int{{opts.FixedTP, opts.FixedPP}}
	}
	var tps []int
	for tp := 1; tp <= maxTP; tp *= 2 {
		tps = append(tps, tp)
	}
	if opts.FixedTP > 0 {
		tps = []int{opts.FixedTP}
	}
	var out [][2]int
	for _, tp := range tps {
		maxPP := dies / tp
		if layers < maxPP {
			maxPP = layers
		}
		if opts.FixedPP > 0 {
			if opts.FixedPP <= maxPP {
				out = append(out, [2]int{tp, opts.FixedPP})
			}
			continue
		}
		// Meaningful pipeline depths: powers of two plus divisors of the
		// remaining die budget (full-wafer coverage points).
		pps := map[int]bool{}
		for pp := 1; pp <= maxPP; pp *= 2 {
			pps[pp] = true
		}
		for pp := 1; pp <= maxPP; pp++ {
			if (dies/tp)%pp == 0 {
				pps[pp] = true
			}
		}
		pps[maxPP] = true
		for pp := range pps {
			if pp >= 1 && pp <= maxPP && tp*pp <= dies {
				out = append(out, [2]int{tp, pp})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func explore(w hw.WaferConfig, m *mesh.Mesh, spec model.Spec, work model.Workload,
	pred predictor.Predictor, tp, pp int, coll collective.Algorithm, opts Options,
	rng *rand.Rand, ev search.Evaluator) Candidate {

	cand := Candidate{TP: tp, PP: pp, Collective: coll}
	mp := tp * pp

	// Early pruning (Alg 1 lines 1–2): modelP must fit the model-parallel
	// dies' aggregate memory.
	if !opts.DisablePruning && !memory.FitsModelP(spec, mp, w.DieDRAM()) {
		cand.Pruned = true
		cand.Err = fmt.Errorf("pruned: modelP does not fit %d dies", mp)
		return cand
	}

	cfg := engine.Config{
		Wafer: w, Spec: spec, Workload: work,
		TP: tp, PP: pp, Collective: coll, Predictor: pred,
	}
	if err := cfg.Validate(); err != nil {
		cand.Err = err
		return cand
	}

	// Placement: the serpentine partition of one wafer's stages, repeated
	// on each wafer the pipeline spans (on one wafer, placement.Serpentine),
	// upgraded by the memory scheduler.
	pipeWafers := max(opts.PipelineWafers, 1)
	if pp%pipeWafers != 0 {
		cand.Err = fmt.Errorf("sched: pp=%d not divisible by %d wafers", pp, pipeWafers)
		return cand
	}
	perWafer := pp / pipeWafers
	base, err := placement.Partition(m, tp, perWafer)
	if err != nil {
		cand.Err = err
		return cand
	}
	regions := make([]placement.Region, pp)
	for s := range regions {
		regions[s] = base[s%perWafer]
	}
	pl := &placement.Placement{Regions: regions}

	strat := sim.Strategy{Placement: pl, PipelineWafers: pipeWafers}

	// Recomputation scheduling (Alg 1 lines 5–6: delegate to downstream
	// schedulers when modelP + checkpoints overflow).
	var plan *recompute.Plan
	var profiles []recompute.StageProfile
	var wl placement.Workload
	if !opts.DisableRecompute {
		sm, err := engine.NewStageModel(cfg)
		if err == nil {
			profiles, plan, err = buildRecomputePlan(cfg, sm, m, opts)
		}
		if err != nil {
			cand.Err = err
			return cand
		}
		strat.Recompute = plan
		wl = placementWorkload(cfg, sm.Graph, plan)
	}

	// Memory scheduler: location-aware placement + DRAM allocation.
	if !opts.DisableMemScheduler && plan != nil && len(plan.Pairs) > 0 {
		if better, err := placement.Optimize(m, tp, pp, wl, rng); err == nil {
			pl = better
			strat.Placement = pl
		}
	}

	// Global optimizer (§IV-D): escape the greedy local optimum by jointly
	// mutating recomputation, placement and Mem_pairs.
	if opts.UseGA && plan != nil {
		base, err := placement.Partition(m, tp, pp)
		if err == nil {
			prob := &ga.Problem{
				Mesh:          m,
				Profiles:      profiles,
				BaseRegions:   base,
				PipelineBytes: wl.PipelineBytes,
			}
			omega := opts.GAOmega
			if omega == 0 {
				omega = 0.5
			}
			gens := opts.GAGenerations
			if gens == 0 {
				gens = 60
			}
			if gaRes, err := ga.Optimize(prob, ga.SeedFromPlan(plan, pp), ga.Options{
				Omega: omega, Generations: gens, Seed: opts.Seed,
			}); err == nil {
				best := gaRes.Best
				if refined, err := recompute.NewPlan(profiles, best.RecompChoice, best.Pairs); err == nil {
					plan = refined
					strat.Recompute = plan
					pl = prob.Placement(best)
					strat.Placement = pl
				}
			}
		}
	}

	if !opts.DisableMemScheduler && plan != nil && len(plan.Pairs) > 0 {
		local := func(s int) float64 { return profiles[s].LocalCheckpointCapacity() }
		reqs, budgets := memalloc.FromPlan(pl, plan, local)
		if allocs, err := memalloc.Allocate(m, pl, reqs, budgets, nil); err == nil {
			strat.Allocations = allocs
		}
	}

	report, err := ev.Evaluate(cfg, m, strat)
	if err != nil {
		cand.Err = err
		return cand
	}
	cand.Report = report
	cand.Strategy = strat
	return cand
}

// buildRecomputePlan profiles the stage model's stages and runs GCMR (or the
// naive baseline).
func buildRecomputePlan(cfg engine.Config, sm engine.StageModel, m *mesh.Mesh, opts Options) ([]recompute.StageProfile, *recompute.Plan, error) {
	cost := engine.GCMRCostFn(cfg, m)
	n := cfg.Workload.MicroBatches()
	profiles := make([]recompute.StageProfile, cfg.PP)
	// BuildOptions enumerates the layer graph's recomputation subsets — the
	// most expensive profiling step — and depends only on the stage's layer
	// count, which takes at most two distinct values across a balanced
	// split. Memoize per count and hand each stage its own copy (the
	// footprints are scaled per stage below).
	optionsByLayers := map[int][]recompute.Option{}
	for s, layers := range sm.Layers {
		base, ok := optionsByLayers[layers]
		if !ok {
			var err error
			base, err = recompute.BuildOptions(sm.Graph, cost, layers)
			if err != nil {
				return nil, nil, err
			}
			optionsByLayers[layers] = base
		}
		options := append([]recompute.Option(nil), base...)
		// BuildOptions reports per-die checkpoint bytes; stage profiles
		// budget against the stage's aggregate DRAM (×TP), so scale the
		// footprints to stage totals.
		for i := range options {
			options[i].CkptBytesPerMB *= float64(cfg.TP)
		}
		extra := memory.StageExtraParams(cfg.Spec, s, cfg.PP)
		profiles[s] = recompute.StageProfile{
			Options:     options,
			Retained:    pipeline.RetainedMicroBatches(cfg.PP, n, s),
			FwdTime:     sm.Fwd * float64(layers),
			BwdTime:     sm.Bwd * float64(layers),
			ModelPBytes: memory.ModelPPerDie(cfg.Spec, layers, cfg.TP, extra) * float64(cfg.TP),
			LocalBytes:  cfg.Wafer.DieDRAM() * float64(cfg.TP),
		}
	}
	if opts.NaiveRecompute || opts.DisableMemScheduler {
		// Without the memory scheduler, cross-stage balancing is
		// unavailable; fall back to local-only recomputation.
		plan, err := recompute.Naive(profiles)
		return profiles, plan, err
	}
	plan, err := recompute.GCMR(profiles)
	return profiles, plan, err
}

// placementWorkload derives the Eq 2 weights from the plan: every pipeline
// edge carries the layer-boundary tensor of each micro-batch.
func placementWorkload(cfg engine.Config, g *opgraph.LayerGraph, plan *recompute.Plan) placement.Workload {
	boundary := g.BoundaryBytes() * float64(cfg.Workload.MicroBatches())
	pipe := make([]float64, cfg.PP)
	for i := range pipe {
		pipe[i] = boundary
	}
	return placement.Workload{PipelineBytes: pipe, Pairs: plan.Pairs}
}
