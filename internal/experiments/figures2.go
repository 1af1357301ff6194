package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/recompute"
	"repro/internal/sched"
	"repro/internal/search/pool"
	"repro/internal/units"
)

// analyticDSETime is the first-order analytic model in the Fig 15 footnote:
// Time = max(Ccomp+Crecomp / power, Caccess/BWdram, Ccomm/BWd2d) + recomp
// penalty for memory shortfall.
func analyticDSETime(w hw.WaferConfig, spec model.Spec, work model.Workload) float64 {
	comp := spec.FLOPsPerIteration(work)
	power := w.PeakFLOPS()
	memRequire := spec.ModelPBytes() * 1.6 // +activations, first order
	dramAggr := w.TotalDRAM()
	eta := 2.0 / units.FP16Bytes // FLOPs per recomputed byte
	var recomp float64
	if memRequire > dramAggr {
		recomp = (memRequire - dramAggr) * eta
	}
	access := comp * 0.5 / 1e3 // bytes per FLOP, first order
	commBytes := spec.EffectiveParams() * units.FP16Bytes * 4
	return math.Max((comp+recomp)/power,
		access/w.DieDRAMBandwidth()) + commBytes/(w.LinkBandwidth()*float64(w.Dies()))
}

// Fig15 runs the architectural DSE over Table II configs 1-4 with and
// without recomputation, plus the analytic-model column.
func Fig15() (*Table, error) {
	t := &Table{
		ID:     "Fig 15",
		Title:  "Configs 1-4 across models, w/o and w/ recomputation (normalized throughput)",
		Header: []string{"model", "mode", "C1", "C2", "C3", "C4", "best"},
	}
	configs := hw.TableII()
	models := model.EvaluationModels()
	wins := map[string]int{}
	for _, spec := range models {
		work := evalWorkload(spec)
		for _, withRecomp := range []bool{false, true} {
			mode := "w/o recomp"
			opts := sched.Options{DisableRecompute: true, DisableMemScheduler: true}
			if withRecomp {
				mode = "w/ recomp"
				opts = sched.Options{}
			}
			row := []string{spec.Name, mode}
			vals := make([]float64, len(configs))
			for i, w := range configs {
				res, err := sched.Search(w, spec, work, pred, searchOpts(opts))
				if err != nil {
					vals[i] = 0
					continue
				}
				vals[i] = res.Best.Report.Throughput
			}
			base := vals[0]
			for _, v := range vals {
				if base == 0 && v > 0 {
					base = v
				}
			}
			bestIdx, bestVal := -1, 0.0
			for i, v := range vals {
				if v > bestVal {
					bestVal, bestIdx = v, i
				}
				if v == 0 {
					row = append(row, "OOM")
				} else {
					row = append(row, f2(v/base))
				}
			}
			if bestIdx >= 0 {
				row = append(row, configs[bestIdx].Name)
				if withRecomp {
					wins[configs[bestIdx].Name]++
				}
			} else {
				row = append(row, "-")
			}
			t.Rows = append(t.Rows, row)
		}
	}
	// Analytic model column for GPT-175B.
	spec := model.GPT_175B()
	work := evalWorkload(spec)
	row := []string{spec.Name, "analytic*"}
	var times []float64
	for _, w := range configs {
		times = append(times, analyticDSETime(w, spec, work))
	}
	base := times[0]
	bestIdx := 0
	for i, v := range times {
		row = append(row, f2(base/v))
		if v < times[bestIdx] {
			bestIdx = i
		}
	}
	row = append(row, configs[bestIdx].Name)
	t.Rows = append(t.Rows, row)
	best := ""
	bestWins := 0
	for name, n := range wins {
		if n > bestWins {
			best, bestWins = name, n
		}
	}
	t.Note("universal optimum with recomputation: %s (paper: config3 — moderate DRAM, high compute density)", best)
	t.Note("the first-order analytic model favours the largest-DRAM config and misses the trade-off (paper Fig 15)")
	return t, nil
}

// Fig16 is the overall comparison: MG-GPU, MG-wafer, Cerebras, WATOS.
func Fig16() (*Table, error) {
	t := &Table{
		ID:     "Fig 16",
		Title:  "Overall performance: MG-GPU vs MG-wafer vs Cerebras vs WATOS (config 3)",
		Header: []string{"model", "system", "norm throughput", "norm time", "recomp frac"},
	}
	w := hw.Config3()
	gpu := hw.BlackwellUltraNode()
	var gainsMG, gainsMW, gainsC []float64
	for _, spec := range model.EvaluationModels() {
		work := evalWorkload(spec)
		gr, gerr := baselines.MegatronGPU(gpu, spec, work)
		mw, merr := baselines.MegatronWafer(w, spec, work, pred)
		cb, cerr := baselines.Cerebras(w, spec, work, pred)
		wa, werr := sched.Search(w, spec, work, pred, searchOpts(sched.Options{UseGA: true}))
		if werr != nil {
			return nil, fmt.Errorf("fig16 WATOS %s: %w", spec.Name, werr)
		}
		base := wa.Best.Report.Throughput
		baseT := wa.Best.Report.IterationTime
		add := func(name string, thpt, iter, recomp float64, err error) {
			if err != nil {
				t.AddRow(spec.Name, name, "OOM", "-", "-")
				return
			}
			t.AddRow(spec.Name, name, f2(thpt/base), f2(iter/baseT), pct(recomp))
		}
		add("MG-GPU", gr.Throughput, gr.IterationTime, 0, gerr)
		if merr == nil {
			add("MG-wafer", mw.Best.Report.Throughput, mw.Best.Report.IterationTime, mw.Best.Report.RecomputeFraction, nil)
			gainsMW = append(gainsMW, base/mw.Best.Report.Throughput)
		} else {
			add("MG-wafer", 0, 0, 0, merr)
		}
		add("Cerebras", cb.Throughput, cb.IterationTime, 0, cerr)
		add("WATOS", base, baseT, wa.Best.Report.RecomputeFraction, nil)
		if gerr == nil {
			gainsMG = append(gainsMG, base/gr.Throughput)
		}
		if cerr == nil {
			gainsC = append(gainsC, base/cb.Throughput)
		}
	}
	t.Note("mean WATOS gain vs MG-GPU %.2fx (paper 1.92x), vs MG-wafer %.2fx (paper up to 2.74x), vs Cerebras %.2fx (paper 1.53x)",
		geomean(gainsMG), geomean(gainsMW), geomean(gainsC))
	return t, nil
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// Fig17 summarises the utilisation heatmaps: WATOS TP=4 vs MG-wafer TP=8 on
// GPT-175B.
func Fig17() (*Table, error) {
	t := &Table{
		ID:     "Fig 17",
		Title:  "GPT-175B utilisation: WATOS (small TP) vs MG-wafer (TP=8) on config 3",
		Header: []string{"system", "TP", "PP", "DRAM util", "D2D util", "compute util"},
	}
	w := hw.Config3()
	spec := model.GPT_175B()
	work := evalWorkload(spec)
	wa, err := sched.Search(w, spec, work, pred, searchOpts(sched.Options{}))
	if err != nil {
		return nil, err
	}
	mw, err := baselines.MegatronWafer(w, spec, work, pred)
	if err != nil {
		return nil, err
	}
	wr, mr := wa.Best.Report, mw.Best.Report
	t.AddRow("WATOS", fmt.Sprintf("%d", wa.Best.TP), fmt.Sprintf("%d", wa.Best.PP),
		pct(wr.DRAMUtilization), pct(wr.MeanLinkUtilization), pct(wr.ComputeUtilization))
	t.AddRow("MG-wafer", fmt.Sprintf("%d", mw.Best.TP), fmt.Sprintf("%d", mw.Best.PP),
		pct(mr.DRAMUtilization), pct(mr.MeanLinkUtilization), pct(mr.ComputeUtilization))
	t.Note("WATOS sustains higher DRAM and compute utilisation with smaller TP (paper: MG-wafer compute util ~40%% of WATOS)")
	return t, nil
}

// Fig18 is the optimisation ablation: B → +R → +M → +GA on config 3.
func Fig18() (*Table, error) {
	t := &Table{
		ID:     "Fig 18",
		Title:  "Ablation: baseline, +Recompute scheduler, +Memory scheduler, +GA (norm throughput)",
		Header: []string{"model", "B", "+R", "+M", "+GA"},
	}
	w := hw.Config3()
	dies := w.Dies()
	for _, spec := range model.EvaluationModels() {
		work := evalWorkload(spec)
		// Baseline: fixed TP=8, PP=dies/8, naive recompute, no scheduling.
		variants := []sched.Options{
			{FixedTP: 8, FixedPP: dies / 8, NaiveRecompute: true, DisableMemScheduler: true},
			{FixedTP: 8, FixedPP: dies / 8, DisableMemScheduler: true},
			{DisableMemScheduler: false},
			{UseGA: true},
		}
		row := []string{spec.Name}
		var base float64
		for i, opt := range variants {
			res, err := sched.Search(w, spec, work, pred, searchOpts(opt))
			val := 0.0
			if err == nil {
				val = res.Best.Report.Throughput
			}
			if i == 0 {
				base = val
			}
			if base == 0 && val > 0 {
				base = val
			}
			if val == 0 {
				row = append(row, "OOM")
			} else {
				row = append(row, f2(val/base))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note("gains from +R and +M grow with model size; the central scheduler's share shrinks (paper Fig 18)")
	return t, nil
}

// Fig19 evaluates the emerging models of §VI-C on the four systems.
func Fig19() (*Table, error) {
	t := &Table{
		ID:     "Fig 19",
		Title:  "Emerging models on config 3: MG-GPU vs MG-wafer vs Cerebras vs WATOS (norm throughput)",
		Header: []string{"model", "MG-GPU", "MG-wafer", "Cerebras", "WATOS"},
	}
	w := hw.Config3()
	gpu := hw.BlackwellUltraNode()
	for _, spec := range model.EmergingModels() {
		work := evalWorkload(spec)
		wa, err := sched.Search(w, spec, work, pred, searchOpts(sched.Options{}))
		if err != nil {
			return nil, fmt.Errorf("fig19 %s: %w", spec.Name, err)
		}
		base := wa.Best.Report.Throughput
		cell := func(v float64, err error) string {
			if err != nil || v == 0 {
				return "OOM"
			}
			return f2(v / base)
		}
		gr, gerr := baselines.MegatronGPU(gpu, spec, work)
		mw, merr := baselines.MegatronWafer(w, spec, work, pred)
		cb, cerr := baselines.Cerebras(w, spec, work, pred)
		mwV := 0.0
		if merr == nil {
			mwV = mw.Best.Report.Throughput
		}
		t.AddRow(spec.Name, cell(gr.Throughput, gerr), cell(mwV, merr), cell(cb.Throughput, cerr), "1.00")
	}
	t.Note("WATOS is operator-centric, so SSM/linear-attention/DiT/recommender workloads retain the advantage (§VI-C)")
	return t, nil
}

// Fig20 compares the seven DSE frameworks plus WATOS.
func Fig20() (*Table, error) {
	t := &Table{
		ID:     "Fig 20",
		Title:  "DSE frameworks on config 3 (normalized throughput; T=Timeloop D=DFModel C=Calculon H=Hecaton G=Gemini P=PD W=WSC-LLM WA=WATOS)",
		Header: []string{"model", "T", "D", "C", "H", "G", "P", "W", "WA"},
	}
	w := hw.Config3()
	for _, spec := range model.EvaluationModels() {
		work := evalWorkload(spec)
		row := []string{spec.Name}
		vals := map[baselines.Framework]float64{}
		for _, fr := range baselines.RunFrameworks(baselines.Frameworks(), w, spec, work, pred, Workers) {
			if fr.Err == nil {
				vals[fr.Framework] = fr.Result.Best.Report.Throughput
			}
		}
		base := vals[baselines.Timeloop]
		if base == 0 {
			for _, v := range vals {
				if base == 0 || (v > 0 && v < base) {
					base = v
				}
			}
		}
		for _, fw := range baselines.Frameworks() {
			if vals[fw] == 0 {
				row = append(row, "OOM")
			} else {
				row = append(row, f2(vals[fw]/base))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note("expected ordering (paper Fig 20): Timeloop worst; DFModel/Calculon mid; chiplet DSE suboptimal; WATOS best")
	return t, nil
}

// Fig21 expands the parallelism search space: 1D TP vs 2D TP vs TACOS.
func Fig21() (*Table, error) {
	t := &Table{
		ID:     "Fig 21",
		Title:  "TP strategy expansion on config 3: 1D TP vs 2D TP vs TACOS",
		Header: []string{"model", "strategy", "comp time", "all-reduce time", "norm throughput"},
	}
	w := hw.Config3()
	m := mesh.New(w)
	for _, spec := range []model.Spec{model.Llama2_30B(), model.GPT_175B()} {
		work := evalWorkload(spec)
		algos := []struct {
			name string
			algo collective.Algorithm
		}{
			{"1D TP", collective.BiRing},
			{"2D TP", collective.TwoD},
			{"TACOS", collective.TACOS},
		}
		var base float64
		type entry struct {
			name                 string
			comp, ar, throughput float64
		}
		var entries []entry
		for _, a := range algos {
			res, err := sched.Search(w, spec, work, pred, searchOpts(sched.Options{
				Collectives: []collective.Algorithm{a.algo},
			}))
			if err != nil {
				entries = append(entries, entry{name: a.name})
				continue
			}
			rep := res.Best.Report
			var comp, ar float64
			for _, s := range rep.PerStage {
				comp += s.FwdCompute + s.BwdCompute
				ar += s.FwdCollective + s.BwdCollective
			}
			entries = append(entries, entry{a.name, comp, ar, rep.Throughput})
			if rep.Throughput > base {
				base = rep.Throughput
			}
		}
		for _, e := range entries {
			if e.throughput == 0 {
				t.AddRow(spec.Name, e.name, "-", "-", "OOM")
				continue
			}
			t.AddRow(spec.Name, e.name, f2(e.comp/(e.comp+e.ar)), f2(e.ar/(e.comp+e.ar)), f2(e.throughput/base))
		}
	}
	_ = m
	t.Note("expanding the space does not move the optimum; 2D TP is worst on the 2D mesh (paper Fig 21)")
	return t, nil
}

// Fig22 sweeps link and die fault rates, robust vs non-robust.
func Fig22() (*Table, error) {
	t := &Table{
		ID:     "Fig 22",
		Title:  "Throughput vs fault rate (normalized): robust WATOS vs non-robust baseline",
		Header: []string{"fault kind", "rate", "WATOS", "baseline", "gain"},
	}
	rates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	for _, kind := range []string{"link", "die"} {
		for _, rate := range rates {
			// Average over a few seeds for stability.
			var rSum, bSum float64
			const seeds = 5
			for s := int64(0); s < seeds; s++ {
				m := mesh.New(hw.Config3())
				rng := rand.New(rand.NewSource(100*s + 7))
				if kind == "link" {
					m.InjectRandomLinkFaults(rng, rate)
				} else {
					m.InjectRandomDieFaults(rng, rate)
				}
				st := fault.Collect(m)
				rSum += fault.RobustFactor(st)
				bSum += fault.BaselineFactor(st)
			}
			r, b := rSum/seeds, bSum/seeds
			gain := "-"
			if b > 0 {
				gain = f2(r / b)
			}
			t.AddRow(kind, f2(rate), f2(r), f2(b), gain)
		}
	}
	t.Note("paper: +18%% at 20%% link faults, +35%% at 20%% die faults; baseline degrades rapidly, robust gradually")
	return t, nil
}

// Fig23 evaluates the mesh-switch topology of §VI-E.
func Fig23() (*Table, error) {
	t := &Table{
		ID:     "Fig 23",
		Title:  "Mesh-switch topology (12-col strips + 1.6 TB/s switch): MG-wafer vs Cerebras vs WATOS",
		Header: []string{"model", "system", "norm throughput", "norm time"},
	}
	w := hw.Config3MeshSwitch()
	for _, spec := range model.EvaluationModels() {
		work := evalWorkload(spec)
		wa, err := sched.Search(w, spec, work, pred, searchOpts(sched.Options{}))
		if err != nil {
			return nil, fmt.Errorf("fig23 %s: %w", spec.Name, err)
		}
		base := wa.Best.Report.Throughput
		baseT := wa.Best.Report.IterationTime
		if mw, err := baselines.MegatronWafer(w, spec, work, pred); err == nil {
			t.AddRow(spec.Name, "MG-wafer", f2(mw.Best.Report.Throughput/base), f2(mw.Best.Report.IterationTime/baseT))
		} else {
			t.AddRow(spec.Name, "MG-wafer", "OOM", "-")
		}
		if cb, err := baselines.Cerebras(w, spec, work, pred); err == nil {
			t.AddRow(spec.Name, "Cerebras", f2(cb.Throughput/base), f2(cb.IterationTime/baseT))
		} else {
			t.AddRow(spec.Name, "Cerebras", "OOM", "-")
		}
		t.AddRow(spec.Name, "WATOS", "1.00", "1.00")
	}
	t.Note("WATOS keeps TP inside each mesh strip and routes light inter-stage traffic via the switch (§VI-E)")
	return t, nil
}

// Fig24a evaluates multi-wafer scaling against a Megatron GPU cluster.
func Fig24a() (*Table, error) {
	t := &Table{
		ID:     "Fig 24a",
		Title:  "Multi-wafer node (4x config3) vs Megatron 4x8-GPU cluster (norm throughput)",
		Header: []string{"model", "Megatron", "WATOS-4 (400GB/s W2W)", "WATOS-18 (1.8TB/s W2W)"},
	}
	gpu := hw.MegatronCluster(4)
	for _, spec := range model.UltraLargeModels() {
		work := evalWorkload(spec)
		gr, gerr := baselines.MegatronGPU(gpu, spec, work)
		// Pipeline wafers: enough to hold modelP.
		pipeWafers := 1
		for float64(pipeWafers)*hw.Config3().TotalDRAM()*0.8 < spec.ModelPBytes() && pipeWafers < 4 {
			pipeWafers++
		}
		run := func(w2wBW float64) (float64, error) {
			node := hw.MultiWafer(hw.Config3(), 4, w2wBW)
			pp := pipeWafers * 7 // 7 stages per wafer (8 dies each)
			if pp > spec.Layers {
				pp = spec.Layers - spec.Layers%pipeWafers
			}
			res, err := sched.Search(node, spec, work, pred, searchOpts(sched.Options{
				FixedTP: 8, FixedPP: pp, PipelineWafers: pipeWafers,
			}))
			if err != nil {
				return 0, err
			}
			return res.Best.Report.Throughput, nil
		}
		w4, err4 := run(400 * units.GB)
		w18, err18 := run(1.8 * units.TB)
		base := gr.Throughput
		if gerr != nil {
			base = w18
		}
		cell := func(v float64, err error) string {
			if err != nil || v == 0 {
				return "OOM"
			}
			return f2(v / base)
		}
		t.AddRow(spec.Name, cell(gr.Throughput, gerr), cell(w4, err4), cell(w18, err18))
	}
	t.Note("WATOS gains grow for ultra-large models: two wafers hold Llama3-405B where Megatron needs 3+ servers (§VI-F)")
	return t, nil
}

// Fig24b shows the GA elitism (ω) convergence/performance trade-off.
func Fig24b() (*Table, error) {
	t := &Table{
		ID:     "Fig 24b",
		Title:  "GA trade-off: elitism proportion ω vs convergence and final fitness",
		Header: []string{"omega", "gens to 95% of final", "final norm throughput(1/fitness)"},
	}
	prob, seed, err := gaProblem()
	if err != nil {
		return nil, err
	}
	type res struct {
		omega float64
		conv  int
		fit   float64
	}
	var all []res
	for _, omega := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		r, err := ga.Optimize(prob, seed, ga.Options{
			Population: 32, Generations: 100, Omega: omega, Seed: 42,
		})
		if err != nil {
			return nil, err
		}
		final := r.History[len(r.History)-1]
		conv := len(r.History)
		for g, f := range r.History {
			if f <= final/0.95 {
				conv = g
				break
			}
		}
		all = append(all, res{omega, conv, final})
	}
	var worst float64
	for _, r := range all {
		if r.fit > worst {
			worst = r.fit
		}
	}
	for _, r := range all {
		t.AddRow(f2(r.omega), fmt.Sprintf("%d", r.conv), f2(worst/r.fit))
	}
	t.Note("elitist (ω=1) converges fastest but plateaus; tournament-heavy (ω=0) reaches better fitness slowly (paper Fig 24b)")
	return t, nil
}

// gaProblem builds a representative GA instance (GPT-175B, config3, TP=8).
func gaProblem() (*ga.Problem, ga.Genome, error) {
	w := hw.Config3()
	m := mesh.New(w)
	tp, pp := 8, 7
	base, err := placement.Partition(m, tp, pp)
	if err != nil {
		return nil, ga.Genome{}, err
	}
	profiles := make([]recompute.StageProfile, pp)
	for s := 0; s < pp; s++ {
		retained := pp - s
		profiles[s] = recompute.StageProfile{
			Options: []recompute.Option{
				{CkptBytesPerMB: 40e9, ExtraBwdTime: 0},
				{CkptBytesPerMB: 25e9, ExtraBwdTime: 0.05},
				{CkptBytesPerMB: 12e9, ExtraBwdTime: 0.12},
				{CkptBytesPerMB: 5e9, ExtraBwdTime: 0.25},
			},
			Retained:    retained,
			FwdTime:     1.0,
			BwdTime:     2.0,
			ModelPBytes: 320e9,
			LocalBytes:  w.DieDRAM() * float64(tp),
		}
	}
	plan, err := recompute.GCMR(profiles)
	if err != nil {
		return nil, ga.Genome{}, err
	}
	prob := &ga.Problem{
		Mesh:          m,
		Profiles:      profiles,
		BaseRegions:   base,
		PipelineBytes: []float64{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9},
	}
	return prob, ga.SeedFromPlan(plan, pp), nil
}

// Fig25 is the hardware DSE at die granularity: Small/Large × Square/Rect.
func Fig25() (*Table, error) {
	t := &Table{
		ID:     "Fig 25",
		Title:  "Die-granularity DSE: memory capacity vs throughput by size/shape class",
		Header: []string{"die", "class", "area mm2", "norm mem capacity", "norm throughput", "objective"},
	}
	spec := model.Llama3_70B()
	work := evalWorkload(spec)
	type point struct {
		name, class          string
		area, mem, thpt, obj float64
	}
	// Die candidates are independent whole searches: sweep the Fig 25
	// design space with pool.Map (each inner search with Workers: 1),
	// collecting points in sweep order so the table is identical for every
	// worker count.
	dieSweep := hw.DieSweep()
	swept := pool.Map(Workers, len(dieSweep), func(i int) *point {
		die := dieSweep[i]
		cands := hw.Enumerate(hw.EnumeratorOptions{Dies: []hw.DieConfig{die}, HBMPerDie: []int{4}})
		if len(cands) == 0 {
			return nil
		}
		w := cands[0]
		res, err := sched.Search(w, spec, work, pred, sched.Options{Workers: 1})
		if err != nil {
			return nil
		}
		return &point{
			name:  die.Name,
			class: hw.Classify(die).String(),
			area:  die.AreaMM2(),
			mem:   w.TotalDRAM(),
			thpt:  res.Best.Report.Throughput,
		}
	})
	var pts []point
	for _, p := range swept {
		if p != nil {
			pts = append(pts, *p)
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("fig25: no feasible die candidates")
	}
	var maxMem, maxThpt float64
	for _, p := range pts {
		if p.mem > maxMem {
			maxMem = p.mem
		}
		if p.thpt > maxThpt {
			maxThpt = p.thpt
		}
	}
	bestObj := 0.0
	bestClass := ""
	for i := range pts {
		pts[i].obj = (pts[i].mem / maxMem) * (pts[i].thpt / maxThpt)
		if pts[i].obj > bestObj {
			bestObj = pts[i].obj
			bestClass = pts[i].class
		}
	}
	for _, p := range pts {
		t.AddRow(p.name, p.class, f0(p.area), f2(p.mem/maxMem), f2(p.thpt/maxThpt), f2(p.obj))
	}
	t.Note("best objective class: %s (paper: Small Square maximises edge for D2D and area utilisation)", bestClass)
	return t, nil
}

// TableI prints the framework feature matrix.
func TableI() (*Table, error) {
	t := &Table{
		ID:     "Table I",
		Title:  "Framework capability matrix (per the paper's Table I)",
		Header: []string{"framework", "comp", "mem", "D2D", "recomp-aware", "WSC physical", "co-design", "level"},
	}
	rows := [][]string{
		{"Timeloop", "yes", "no", "no", "no", "no", "no", "die"},
		{"Hecaton", "yes", "yes", "yes", "no", "no", "no", "chiplet"},
		{"Gemini", "yes", "yes", "yes", "no", "no", "no", "chiplet"},
		{"DFModel", "yes", "no", "no", "no", "no", "no", "cluster"},
		{"Calculon", "yes", "yes", "no", "yes", "no", "no", "cluster"},
		{"BPipe", "yes", "yes", "yes", "no", "no", "no", "cluster"},
		{"FRED", "yes", "no", "yes", "no", "no", "yes", "wafer"},
		{"PD", "yes", "no", "yes", "no", "yes", "yes", "wafer"},
		{"WSC-LLM", "low", "no", "no", "no", "yes", "yes", "wafer"},
		{"WATOS", "yes", "yes", "yes", "yes", "yes", "yes", "wafer"},
	}
	t.Rows = rows
	return t, nil
}

// TableII prints the four representative hardware configurations.
func TableII() (*Table, error) {
	t := &Table{
		ID:     "Table II",
		Title:  "Representative hardware configurations",
		Header: []string{"config", "dies", "grid", "TFLOPS/die", "DRAM/die (GB)", "DRAM BW (TB/s)", "D2D (TB/s)"},
	}
	for _, w := range hw.TableII() {
		t.AddRow(w.Name, fmt.Sprintf("%d", w.Dies()),
			fmt.Sprintf("(%d,%d)", w.DiesX, w.DiesY),
			f0(w.DiePeakFLOPS()/units.TFLOPS),
			f0(w.DieDRAM()/units.GB),
			f1(w.DieDRAMBandwidth()/units.TB),
			f1(w.LinkBandwidth()/units.TB))
	}
	return t, nil
}
