// Package repro's benchmark harness regenerates every table and figure of
// the WATOS paper as testing.B benchmarks: `go test -bench=BenchmarkFig15`
// reruns the Fig 15 architectural DSE and reports its headline metric.
// Ablation benchmarks cover the paper's design decisions: GCMR against
// local-only recomputation, location-aware placement, the hybrid dataflow,
// the GA and early pruning.
package repro

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/recompute"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/sim"
)

// benchExperiment runs one figure/table runner per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		// Cold-start each iteration: the process-wide memo caches would
		// otherwise serve iterations 2..N and the timing would measure
		// LRU lookups, not the experiment.
		search.DefaultCache().Reset()
		sched.ResetCache()
		t, err := runner()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig01(b *testing.B)   { benchExperiment(b, "1") }
func BenchmarkFig02(b *testing.B)   { benchExperiment(b, "2") }
func BenchmarkFig05a(b *testing.B)  { benchExperiment(b, "5a") }
func BenchmarkFig05b(b *testing.B)  { benchExperiment(b, "5b") }
func BenchmarkFig05c(b *testing.B)  { benchExperiment(b, "5c") }
func BenchmarkFig06a(b *testing.B)  { benchExperiment(b, "6a") }
func BenchmarkFig06b(b *testing.B)  { benchExperiment(b, "6b") }
func BenchmarkFig10b(b *testing.B)  { benchExperiment(b, "10b") }
func BenchmarkFig10c(b *testing.B)  { benchExperiment(b, "10c") }
func BenchmarkFig15(b *testing.B)   { benchExperiment(b, "15") }
func BenchmarkFig16(b *testing.B)   { benchExperiment(b, "16") }
func BenchmarkFig17(b *testing.B)   { benchExperiment(b, "17") }
func BenchmarkFig18(b *testing.B)   { benchExperiment(b, "18") }
func BenchmarkFig19(b *testing.B)   { benchExperiment(b, "19") }
func BenchmarkFig20(b *testing.B)   { benchExperiment(b, "20") }
func BenchmarkFig21(b *testing.B)   { benchExperiment(b, "21") }
func BenchmarkFig22(b *testing.B)   { benchExperiment(b, "22") }
func BenchmarkFig23(b *testing.B)   { benchExperiment(b, "23") }
func BenchmarkFig24a(b *testing.B)  { benchExperiment(b, "24a") }
func BenchmarkFig24b(b *testing.B)  { benchExperiment(b, "24b") }
func BenchmarkFig25(b *testing.B)   { benchExperiment(b, "25") }
func BenchmarkTableI(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B) { benchExperiment(b, "table2") }

var benchPred = predictor.NewLookupTable(predictor.TileLevel{})

func benchWork() model.Workload {
	return model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
}

// BenchmarkAblationGCMR compares GCMR against naive local-only
// recomputation: the ratio of the two searches' throughputs is reported as
// gcmr-gain-x.
func BenchmarkAblationGCMR(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		gcmr, err := sched.Search(hw.Config3(), model.GPT_175B(), benchWork(), benchPred,
			sched.Options{FixedTP: 8, FixedPP: 7, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		naive, err := sched.Search(hw.Config3(), model.GPT_175B(), benchWork(), benchPred,
			sched.Options{FixedTP: 8, FixedPP: 7, NaiveRecompute: true, DisableMemScheduler: true, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		gain = gcmr.Best.Report.Throughput / naive.Best.Report.Throughput
	}
	b.ReportMetric(gain, "gcmr-gain-x")
}

// BenchmarkAblationPlacement compares location-aware placement with the
// serpentine baseline on the Fig 11 workload.
func BenchmarkAblationPlacement(b *testing.B) {
	m := mesh.New(hw.Config3())
	pipe := make([]float64, 8)
	for i := range pipe {
		pipe[i] = 1e9
	}
	wl := placement.Workload{
		PipelineBytes: pipe,
		Pairs: []recompute.MemPair{
			{Sender: 0, Helper: 7, Bytes: 2e9},
			{Sender: 1, Helper: 6, Bytes: 2e9},
		},
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		serp, err := placement.Serpentine(m, 7, 8)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := placement.Optimize(m, 7, 8, wl, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		ratio = placement.GlobalCost(m, serp, wl) / placement.GlobalCost(m, opt, wl)
	}
	b.ReportMetric(ratio, "cost-reduction-x")
}

// BenchmarkAblationDataflow compares the hybrid dataflow selection with a
// fixed output-stationary schedule.
func BenchmarkAblationDataflow(b *testing.B) {
	die := predictor.Context(hw.Config3())
	_ = die
	for i := 0; i < b.N; i++ {
		g, err := sched.Search(hw.Config3(), model.Llama3_70B(), benchWork(), benchPred,
			sched.Options{FixedTP: 4, FixedPP: 14, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

// BenchmarkAblationGA measures the GA's refinement over the greedy solution.
func BenchmarkAblationGA(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		greedy, err := sched.Search(hw.Config3(), model.GPT_175B(), benchWork(), benchPred,
			sched.Options{FixedTP: 4, FixedPP: 14, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		ga, err := sched.Search(hw.Config3(), model.GPT_175B(), benchWork(), benchPred,
			sched.Options{FixedTP: 4, FixedPP: 14, UseGA: true, GAGenerations: 40, DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		gain = ga.Best.Report.Throughput / greedy.Best.Report.Throughput
	}
	b.ReportMetric(gain, "ga-gain-x")
}

// BenchmarkAblationPruning measures how much of the search space the early
// pruner removes.
func BenchmarkAblationPruning(b *testing.B) {
	var prunedFrac float64
	for i := 0; i < b.N; i++ {
		res, err := sched.Search(hw.Config3(), model.GPT_175B(), benchWork(), benchPred, sched.Options{DisableCache: true})
		if err != nil {
			b.Fatal(err)
		}
		prunedFrac = float64(res.PrunedCount) / float64(len(res.Explored))
	}
	b.ReportMetric(prunedFrac*100, "pruned-%")
}

// BenchmarkCollectives measures the collective algorithms' raw cost on an
// 8-die group (Fig 21 substrate).
func BenchmarkCollectives(b *testing.B) {
	m := mesh.New(hw.Config3())
	group := collective.Rectangle(0, 0, 4, 2)
	for _, algo := range []collective.Algorithm{collective.Ring, collective.BiRing, collective.TwoD, collective.TACOS} {
		b.Run(strings.ReplaceAll(algo.String(), "/", "-"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := collective.AllReduce(m, group, 1e9, algo); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearch measures one full strategy search (the DSE inner loop; the
// paper reports 0.274 s per 100 optimizer steps on a Xeon).
func BenchmarkSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
			sched.Options{DisableCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchSequential is the single-threaded, uncached baseline of the
// concurrent evaluation runtime: every candidate is re-simulated on one
// worker, reproducing the seed's strictly sequential behaviour.
func BenchmarkSearchSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
			sched.Options{Workers: 1, DisableCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchParallel runs the same search on the full worker pool with
// the memoization cache enabled — the production configuration. Against
// BenchmarkSearchSequential it measures the combined worker-pool speedup
// (scales with cores) and cache speedup (repeated searches are served from
// memoized reports); the hit rate over the run is reported alongside.
func BenchmarkSearchParallel(b *testing.B) {
	search.DefaultCache().Reset()
	sched.ResetCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
			sched.Options{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s := sched.CacheStats()
	b.ReportMetric(s.HitRate()*100, "cache-hit-%")
}

// BenchmarkSearchCacheHitRate isolates the memoization layer: each iteration
// runs a cold search followed by an identical hot search on a fresh cache,
// reporting the steady-state hit rate (the re-simulation work a shared cache
// removes from baselines, ablations and figure reproductions).
func BenchmarkSearchCacheHitRate(b *testing.B) {
	var rate float64
	for i := 0; i < b.N; i++ {
		search.DefaultCache().Reset()
		sched.ResetCache()
		for pass := 0; pass < 2; pass++ {
			if _, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
				sched.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		rate = sched.CacheStats().HitRate()
	}
	b.ReportMetric(rate*100, "cache-hit-%")
}

// benchStrategy returns a fixed (config, mesh, strategy) triple — the best
// Llama2-30B strategy on Config3 — for evaluator micro-benchmarks.
func benchStrategy(b *testing.B) (engine.Config, *mesh.Mesh, sim.Strategy) {
	b.Helper()
	res, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
		sched.Options{FixedTP: 4, FixedPP: 7})
	if err != nil {
		b.Fatal(err)
	}
	cfg := engine.Config{
		Wafer: hw.Config3(), Spec: model.Llama2_30B(), Workload: benchWork(),
		TP: res.Best.TP, PP: res.Best.PP, Collective: res.Best.Collective, Predictor: benchPred,
	}
	return cfg, mesh.New(hw.Config3()), res.Best.Strategy
}

// BenchmarkEvaluateCold measures one cache-cold sim.Evaluate — the inner
// loop of every search — with the collective plan store cleared each
// iteration, so ring embedding and routing are included.
func BenchmarkEvaluateCold(b *testing.B) {
	cfg, m, strat := benchStrategy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		collective.ResetPlanCache()
		if _, err := sim.Evaluate(cfg, m, strat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateWarm measures sim.Evaluate with warm collective plans —
// the steady-state per-candidate cost inside one search.
func BenchmarkEvaluateWarm(b *testing.B) {
	cfg, m, strat := benchStrategy(b)
	if _, err := sim.Evaluate(cfg, m, strat); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Evaluate(cfg, m, strat); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAnnealSwap measures one annealer iteration: a random two-anchor
// swap priced read-only by the Scorer and committed on a 1-in-8 coin, or
// the PR3-era full Eq 2 re-evaluation kept on a coin flip. The substrate
// and cycles come from internal/benchutil, shared with cmd/bench so the
// smoke gate and the recorded trajectory measure the same workload.
func benchAnnealSwap(b *testing.B, m *mesh.Mesh, tp, pp, npairs int, priced bool) {
	anchors, w, err := benchutil.AnnealSubstrate(m, tp, pp, npairs)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var cycle func()
	if priced {
		cycle = benchutil.AnnealBatchCycle(placement.NewScorer(m, anchors, w), pp, rng)
	} else {
		cycle = benchutil.AnnealSwapCycleFull(m, anchors, w, m.NewLinkSet(), pp, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkAnnealSwap compares the Scorer's price/commit iteration against
// the PR3-era full re-evaluation per annealer iteration, at production
// scale (12×12 wafer, pp=128 single-die stages, 32 Mem_pairs) and at the
// Config3 scale (pp=32, 8 pairs). The priced variants stay allocation-free.
func BenchmarkAnnealSwap(b *testing.B) {
	b.Run("priced", func(b *testing.B) { benchAnnealSwap(b, benchutil.ScaleWafer(), 1, 128, 32, true) })
	b.Run("full-reeval", func(b *testing.B) { benchAnnealSwap(b, benchutil.ScaleWafer(), 1, 128, 32, false) })
	b.Run("pp32-priced", func(b *testing.B) { benchAnnealSwap(b, mesh.New(hw.Config3()), 1, 32, 8, true) })
	b.Run("pp32-full-reeval", func(b *testing.B) { benchAnnealSwap(b, mesh.New(hw.Config3()), 1, 32, 8, false) })
}

// BenchmarkOptimizePlacement measures the full §IV-C-1 annealing search
// (200·pp iterations) end to end, from the Config3 scale up to the
// 12×12-wafer pp=128 case.
func BenchmarkOptimizePlacement(b *testing.B) {
	for _, cfg := range []struct {
		name   string
		scale  bool
		tp, pp int
		pairs  int
	}{
		{"pp8", false, 7, 8, 2},
		{"pp32", false, 1, 32, 8},
		{"pp128", true, 1, 128, 32},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			m := mesh.New(hw.Config3())
			if cfg.scale {
				m = benchutil.ScaleWafer()
			}
			_, w, err := benchutil.AnnealSubstrate(m, cfg.tp, cfg.pp, cfg.pairs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := placement.Optimize(m, cfg.tp, cfg.pp, w, rand.New(rand.NewSource(int64(i)))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGAGeneration is the §IV-D GA inner loop — one generation of
// selection, crossover, mutation and pricing on the run's one scratch — on
// two instances: pp7 is benchutil.GAProblem (7 stages, no Mem_pairs) and
// pp16-pairs benchutil.GAPairsProblem (16 stages whose GCMR plan starts
// with 13 Mem_pairs, the shape of a deep Table II pipeline). Each
// iteration times a 16- and a 48-generation Optimize run from one seed:
// ns/generation is their difference over the 32 extra generations, and
// ns/setup the rest of the short run (seeding math/rand, the arena's first
// fill, the result), which no generation pays. ns/op, B/op and allocs/op
// cover the pair of runs.
func BenchmarkGAGeneration(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func() (*ga.Problem, ga.Genome, error)
	}{
		{"pp7", benchutil.GAProblem},
		{"pp16-pairs", benchutil.GAPairsProblem},
	} {
		b.Run(tc.name, func(b *testing.B) {
			prob, seed, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			const short, long = 16, 48
			optimize := func(gens int, s int64) time.Duration {
				start := time.Now()
				if _, err := ga.Optimize(prob, seed, ga.Options{
					Population: 24, Generations: gens, Omega: 0.5, Seed: s,
				}); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			var tShort, tLong time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tShort += optimize(short, int64(i))
				tLong += optimize(long, int64(i))
			}
			b.StopTimer()
			perGen := float64(tLong-tShort) / float64(b.N*(long-short))
			b.ReportMetric(perGen, "ns/generation")
			b.ReportMetric(float64(tShort)/float64(b.N)-short*perGen, "ns/setup")
		})
	}
}

// BenchmarkCanonical renders the canonical record of a co-exploration
// (benchutil.CoExploration: 32 candidates, 133,969 bytes), the text a
// daemon returns and keeps in its job history for every job.
func BenchmarkCanonical(b *testing.B) {
	res, err := benchutil.CoExploration()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		service.Canonical(res)
	}
}

// BenchmarkMeshNew measures building a wafer's mesh — dense die and link
// IDs, the interned route table and its bitmasks — which every sched.Search
// pays once, on each Table II wafer and on mesh-switch.
func BenchmarkMeshNew(b *testing.B) {
	for _, w := range append(hw.TableII(), hw.Config3MeshSwitch()) {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mesh.New(w)
			}
		})
	}
}

// BenchmarkPredictor measures lookup-table hit latency (§IV-F "negligible
// overhead" claim).
func BenchmarkPredictor(b *testing.B) {
	die := predictor.Context(hw.Config3())
	g, err := sched.Search(hw.Config3(), model.Llama2_30B(), benchWork(), benchPred,
		sched.Options{FixedTP: 4, FixedPP: 7})
	if err != nil {
		b.Fatal(err)
	}
	_ = g
	samples := predictor.Corpus([]predictor.DieContext{die}, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPred.Predict(samples[i%len(samples)].Op, die)
	}
}
