package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/memalloc"
	"repro/internal/memory"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/pipeline"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/recompute"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/sim"
)

// replayer re-runs sched.Search's candidate loop through the layers' public
// functions, in the order sched.explore calls them, and wraps each call in
// a span. The search core has no spans of its own yet; the replay is what
// attributes a search's time to its layers, and the caller proves it
// describes the program by comparing every replayed candidate with the real
// search's, bit for bit.
//
// It mirrors the option paths the benchmark drives (GCMR, the memory
// scheduler, the optional GA, the default collective, one wafer) and
// refuses any other.
type replayer struct {
	rec        *recorder
	op, parent int
	ev         search.Evaluator
}

func (r *replayer) timed(name string, fn func()) {
	id := r.rec.begin(name, r.op, r.parent)
	fn()
	r.rec.end(id)
}

// search replays sched.Search for one architecture and returns the explored
// candidates in sched's order.
func (r *replayer) search(w hw.WaferConfig, spec model.Spec, work model.Workload, pred predictor.Predictor, opts sched.Options) ([]sched.Candidate, error) {
	if opts.DisableRecompute || opts.DisableMemScheduler || opts.DisablePruning || opts.NaiveRecompute ||
		opts.PipelineWafers > 1 || opts.FixedTP > 0 || opts.FixedPP > 0 || len(opts.Collectives) > 0 {
		return nil, fmt.Errorf("replay: options outside the benchmark's paths: %+v", opts)
	}
	if err := work.Validate(); err != nil {
		return nil, err
	}
	var m *mesh.Mesh
	r.timed("mesh.new", func() { m = mesh.New(w) })
	dies := m.Dies()
	maxTP := opts.MaxTP
	if maxTP <= 0 || maxTP > dies {
		maxTP = dies
	}
	if !memory.FitsModelP(spec, w.TotalDies(), w.DieDRAM()) {
		return nil, fmt.Errorf("replay: modelP of %s exceeds %s", spec.Name, w.Name)
	}
	// TP degrees are powers of two, so the default BiRing collective keeps
	// every factorisation (Alg 1 line 4 only drops odd groups above two).
	pairs := factorisations(dies, maxTP, spec.Layers)
	exploreOpts := opts
	if len(pairs) > 1 {
		exploreOpts.Workers = 1
	}
	out := make([]sched.Candidate, len(pairs))
	for i, tpPP := range pairs {
		rng := rand.New(rand.NewSource(opts.Seed + 1 + int64(i)*1000003))
		out[i] = r.explore(w, m, spec, work, pred, tpPP[0], tpPP[1], exploreOpts, rng)
	}
	return out, nil
}

// factorisations mirrors sched's (TP, PP) enumeration (Alg 1 line 4).
func factorisations(dies, maxTP, layers int) [][2]int {
	var out [][2]int
	for tp := 1; tp <= maxTP; tp *= 2 {
		maxPP := min(dies/tp, layers)
		pps := map[int]bool{maxPP: true}
		for pp := 1; pp <= maxPP; pp *= 2 {
			pps[pp] = true
		}
		for pp := 1; pp <= maxPP; pp++ {
			if (dies/tp)%pp == 0 {
				pps[pp] = true
			}
		}
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

// explore mirrors sched.explore for one (TP, PP) candidate.
func (r *replayer) explore(w hw.WaferConfig, m *mesh.Mesh, spec model.Spec, work model.Workload,
	pred predictor.Predictor, tp, pp int, opts sched.Options, rng *rand.Rand) sched.Candidate {

	cand := sched.Candidate{TP: tp, PP: pp, Collective: collective.BiRing}
	if !memory.FitsModelP(spec, tp*pp, w.DieDRAM()) {
		cand.Pruned = true
		cand.Err = fmt.Errorf("pruned: modelP does not fit %d dies", tp*pp)
		return cand
	}
	cfg := engine.Config{Wafer: w, Spec: spec, Workload: work, TP: tp, PP: pp,
		Collective: collective.BiRing, Predictor: pred}
	if err := cfg.Validate(); err != nil {
		cand.Err = err
		return cand
	}
	var pl *placement.Placement
	var err error
	r.timed("placement.serpentine", func() { pl, err = placement.Serpentine(m, tp, pp) })
	if err != nil {
		cand.Err = err
		return cand
	}
	strat := sim.Strategy{Placement: pl, PipelineWafers: 1}

	profiles, plan, err := r.recomputePlan(cfg, m)
	if err != nil {
		cand.Err = err
		return cand
	}
	strat.Recompute = plan

	if plan != nil && len(plan.Pairs) > 0 {
		wl := placementWorkload(cfg, plan)
		var better *placement.Placement
		r.timed("placement.optimize", func() { better, err = placement.Optimize(m, tp, pp, wl, rng) })
		if err == nil {
			pl = better
			strat.Placement = pl
		}
	}

	if opts.UseGA && plan != nil && profiles != nil {
		var base []placement.Region
		r.timed("placement.partition", func() { base, err = placement.Partition(m, tp, pp) })
		if err == nil {
			prob := &ga.Problem{Mesh: m, Profiles: profiles, BaseRegions: base,
				PipelineBytes: placementWorkload(cfg, plan).PipelineBytes}
			omega := opts.GAOmega
			if omega == 0 {
				omega = 0.5
			}
			gens := opts.GAGenerations
			if gens == 0 {
				gens = 60
			}
			var res *ga.Result
			r.timed("ga.optimize", func() {
				res, err = ga.Optimize(prob, ga.SeedFromPlan(plan, pp), ga.Options{
					Omega: omega, Generations: gens, Seed: opts.Seed, Workers: opts.Workers})
			})
			if err == nil {
				if refined := applyGenome(res.Best, profiles); refined != nil {
					plan = refined
					strat.Recompute = plan
					regions := make([]placement.Region, pp)
					for s, reg := range res.Best.Perm {
						regions[s] = base[reg]
					}
					pl = &placement.Placement{Regions: regions}
					strat.Placement = pl
				}
			}
		}
	}

	if plan != nil && len(plan.Pairs) > 0 {
		local := localCapacity(cfg)
		var reqs []memalloc.Request
		var budgets []memalloc.DieBudget
		r.timed("memalloc.from_plan", func() { reqs, budgets = memalloc.FromPlan(pl, plan, local) })
		var allocs []memalloc.Allocation
		r.timed("memalloc.allocate", func() { allocs, err = memalloc.Allocate(m, pl, reqs, budgets, nil) })
		if err == nil {
			strat.Allocations = allocs
		}
	}

	var report sim.Report
	r.timed("sim.evaluate", func() { report, err = r.ev.Evaluate(cfg, m, strat) })
	if err != nil {
		cand.Err = err
		return cand
	}
	cand.Report = report
	cand.Strategy = strat
	return cand
}

// stageExtraParams is the embedding/head parameter count stage s holds on
// top of its layers.
func stageExtraParams(cfg engine.Config, s int) float64 {
	extra := 0.0
	if s == 0 {
		extra += float64(cfg.Spec.Vocab*cfg.Spec.Hidden) + cfg.Spec.EmbeddingParams
	}
	if s == cfg.PP-1 && cfg.Spec.Vocab > 0 {
		extra += float64(cfg.Spec.Vocab * cfg.Spec.Hidden)
	}
	return extra
}

// recomputePlan mirrors sched's per-stage profiling and GCMR call.
func (r *replayer) recomputePlan(cfg engine.Config, m *mesh.Mesh) ([]recompute.StageProfile, *recompute.Plan, error) {
	layers, err := memory.SplitLayers(cfg.Spec.Layers, cfg.PP)
	if err != nil {
		return nil, nil, err
	}
	mb := max(cfg.Workload.MicroBatch, 1)
	var g *opgraph.LayerGraph
	r.timed("opgraph.build", func() { g, err = opgraph.Build(cfg.Spec, cfg.TP, mb, cfg.Workload.SeqLen) })
	if err != nil {
		return nil, nil, err
	}
	cost := engine.GCMRCostFn(cfg, m)
	n := cfg.Workload.MicroBatches()
	die := predictor.Context(cfg.Wafer)
	var fwdLayer, bwdLayer float64
	for _, op := range g.Ops {
		est := cfg.Predictor.Predict(op, die)
		fwdLayer += est.Latency
		ratio := 2.0
		if op.FwdFLOPs > 0 {
			ratio = op.BwdFLOPs / op.FwdFLOPs
		}
		bwdLayer += est.Latency * ratio
	}
	profiles := make([]recompute.StageProfile, cfg.PP)
	optionsByLayers := map[int][]recompute.Option{}
	for s := 0; s < cfg.PP; s++ {
		base, ok := optionsByLayers[layers[s]]
		if !ok {
			r.timed("recompute.build_options", func() { base, err = recompute.BuildOptions(g, cost, layers[s]) })
			if err != nil {
				return nil, nil, err
			}
			optionsByLayers[layers[s]] = base
		}
		options := append([]recompute.Option(nil), base...)
		for i := range options {
			options[i].CkptBytesPerMB *= float64(cfg.TP)
		}
		profiles[s] = recompute.StageProfile{
			Options:     options,
			Retained:    pipeline.RetainedMicroBatches(cfg.PP, n, s),
			FwdTime:     fwdLayer * float64(layers[s]),
			BwdTime:     bwdLayer * float64(layers[s]),
			ModelPBytes: memory.ModelPPerDie(cfg.Spec, layers[s], cfg.TP, stageExtraParams(cfg, s)) * float64(cfg.TP),
			LocalBytes:  cfg.Wafer.DieDRAM() * float64(cfg.TP),
		}
	}
	var plan *recompute.Plan
	r.timed("recompute.gcmr", func() { plan, err = recompute.GCMR(profiles) })
	return profiles, plan, err
}

// placementWorkload mirrors sched's Eq 2 weights.
func placementWorkload(cfg engine.Config, plan *recompute.Plan) placement.Workload {
	mb := max(cfg.Workload.MicroBatch, 1)
	n := cfg.Workload.MicroBatches()
	boundary := float64(mb*cfg.Workload.SeqLen*cfg.Spec.Hidden) * 2 * float64(n)
	pipe := make([]float64, cfg.PP)
	for i := range pipe {
		pipe[i] = boundary
	}
	return placement.Workload{PipelineBytes: pipe, Pairs: plan.Pairs}
}

// localCapacity mirrors sched's per-stage checkpoint capacity.
func localCapacity(cfg engine.Config) func(int) float64 {
	layers, _ := memory.SplitLayers(cfg.Spec.Layers, cfg.PP)
	return func(s int) float64 {
		if layers == nil || s >= len(layers) {
			return 0
		}
		modelP := memory.ModelPPerDie(cfg.Spec, layers[s], cfg.TP, stageExtraParams(cfg, s)) * float64(cfg.TP)
		c := cfg.Wafer.DieDRAM()*float64(cfg.TP) - modelP
		if c < 0 {
			return 0
		}
		return c
	}
}

// applyGenome mirrors sched's conversion of a GA genome into a plan.
func applyGenome(g ga.Genome, profiles []recompute.StageProfile) *recompute.Plan {
	pp := len(profiles)
	if len(g.RecompChoice) != pp {
		return nil
	}
	plan := &recompute.Plan{
		Choice:         append([]int(nil), g.RecompChoice...),
		StageCkptBytes: make([]float64, pp),
		ExtraBwd:       make([]float64, pp),
		Pairs:          append([]recompute.MemPair(nil), g.Pairs...),
	}
	for s := 0; s < pp; s++ {
		oi := plan.Choice[s]
		if oi < 0 || oi >= len(profiles[s].Options) {
			return nil
		}
		o := profiles[s].Options[oi]
		plan.StageCkptBytes[s] = o.CkptBytesPerMB * float64(profiles[s].Retained)
		plan.ExtraBwd[s] = o.ExtraBwdTime
		t := profiles[s].FwdTime + profiles[s].BwdTime + o.ExtraBwdTime
		if t > plan.MaxStageTime {
			plan.MaxStageTime = t
		}
	}
	senders := map[int]bool{}
	for _, p := range plan.Pairs {
		plan.OverflowBytes += p.Bytes
		senders[p.Sender] = true
	}
	for s := 0; s < pp; s++ {
		if senders[s] {
			plan.Senders = append(plan.Senders, s)
		} else {
			plan.Helpers = append(plan.Helpers, s)
		}
	}
	return plan
}

// sameCandidates reports the first candidate whose canonical rendering
// differs between the real search and the replay ("" when all match).
func sameCandidates(real, replayed []sched.Candidate) string {
	if len(real) != len(replayed) {
		return fmt.Sprintf("replay explored %d candidates, the search %d", len(replayed), len(real))
	}
	for i := range real {
		var a, b strings.Builder
		sched.RenderCandidate(&a, real[i])
		sched.RenderCandidate(&b, replayed[i])
		if a.String() != b.String() {
			return fmt.Sprintf("candidate %d (tp=%d pp=%d) differs from the search's", i, real[i].TP, real[i].PP)
		}
	}
	return ""
}

// renderArch renders a replayed single-architecture search the way
// service.Canonical renders a one-architecture co-exploration.
func renderArch(w hw.WaferConfig, cands []sched.Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "arch=%s err=%v\n", w.Name, nil)
	for _, c := range cands {
		sched.RenderCandidate(&b, c)
	}
	return b.String()
}
