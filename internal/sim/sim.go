// Package sim is the WATOS Evaluator (§IV-F): an event-driven model of one
// training iteration that combines per-operator compute cost (tile-level
// predictor), DRAM access, NoC & D2D communication, 1F1B pipelining, data
// parallelism across replicas (and wafers), checkpoint-balancing traffic,
// and per-die DRAM capacity constraints. It stands in for the paper's
// extended ASTRA-sim: the same cost terms, computed by this analytical
// model instead of a network simulator.
package sim

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/memalloc"
	"repro/internal/memory"
	"repro/internal/mesh"
	"repro/internal/pipeline"
	"repro/internal/placement"
	"repro/internal/recompute"
	"repro/internal/units"
)

// Strategy is a complete training strategy to evaluate.
type Strategy struct {
	// Placement maps the PP stages onto the mesh.
	Placement *placement.Placement
	// Recompute is the GCMR (or naive) plan; nil disables recomputation.
	Recompute *recompute.Plan
	// Allocations place overflowing checkpoints on helper dies.
	Allocations []memalloc.Allocation
	// PipelineWafers is the number of wafers the pipeline spans (≥1).
	// Data parallelism uses the remaining wafers of a multi-wafer node.
	PipelineWafers int
}

// Report is the evaluator output.
type Report struct {
	// IterationTime is the latency of one forward+backward iteration.
	IterationTime float64
	// Throughput is useful training FLOP/s (excluding recomputation).
	Throughput float64
	// TotalThroughput includes recomputation FLOPs (the paper's "Recomp
	// Throughput" breakdown).
	TotalThroughput float64
	// RecomputeFraction is extra recompute work over useful work.
	RecomputeFraction float64
	// BubbleFraction is pipeline idle time over total stage time.
	BubbleFraction float64
	// ComputeUtilization is busy compute time over available time.
	ComputeUtilization float64
	// DRAMUtilization is mean per-die memory occupancy over capacity.
	DRAMUtilization float64
	// MeanLinkUtilization is the Fig 5b/17 D2D utilisation metric.
	MeanLinkUtilization float64
	// PerDieMemory is the per-die peak memory in bytes (Fig 17 heatmap).
	PerDieMemory map[mesh.DieID]float64
	// PerStage carries the engine's per-stage detail.
	PerStage []engine.StageCompute
	// DP is the data-parallel replica count.
	DP int
	// MicroBatches is the per-replica 1F1B micro-batch count.
	MicroBatches int
}

// Evaluate runs one iteration of the strategy on the wafer and returns the
// performance report. It returns an error for infeasible strategies
// (placement too large, OOM, disconnected fabric).
func Evaluate(cfg engine.Config, m *mesh.Mesh, strat Strategy) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	if strat.Placement == nil {
		return Report{}, fmt.Errorf("sim: nil placement")
	}
	wafers := cfg.Wafer.W2W.Wafers
	if wafers < 1 {
		wafers = 1
	}
	pipeWafers := strat.PipelineWafers
	if pipeWafers < 1 {
		pipeWafers = 1
	}
	if pipeWafers > wafers {
		return Report{}, fmt.Errorf("sim: pipeline spans %d wafers but node has %d", pipeWafers, wafers)
	}

	// Data parallelism: replicas within the wafer (left-over die groups)
	// and across wafers.
	mpDies := cfg.TP * cfg.PP / pipeWafers
	if mpDies == 0 {
		mpDies = 1
	}
	dpIntra := m.Dies() / mpDies
	if dpIntra < 1 {
		dpIntra = 1
	}
	// Only one intra-wafer replica is modelled spatially; extra replicas
	// reuse the same region timings.
	dp := dpIntra * (wafers / pipeWafers)
	if dp < 1 {
		dp = 1
	}

	// Per-replica workload.
	perReplica := cfg.Workload
	perReplica.GlobalBatch = cfg.Workload.GlobalBatch / dp
	if perReplica.GlobalBatch < 1 {
		perReplica.GlobalBatch = 1
	}
	if perReplica.MicroBatch > perReplica.GlobalBatch {
		perReplica.MicroBatch = perReplica.GlobalBatch
	}
	n := perReplica.MicroBatches()

	var extraBwd []float64
	if strat.Recompute != nil {
		extraBwd = strat.Recompute.ExtraBwd
	}
	// One stage model, at the per-replica workload, prices the stages and
	// charges their memory.
	engCfg := cfg
	engCfg.Workload = perReplica
	sm, err := engine.NewStageModel(engCfg)
	if err != nil {
		return Report{}, err
	}
	costs, computes, err := engine.StageCosts(engCfg, sm, m, strat.Placement, extraBwd)
	if err != nil {
		return Report{}, err
	}

	// Cross-wafer pipeline hops: stages that straddle wafer boundaries pay
	// the W2W transfer instead of an on-wafer hop.
	if pipeWafers > 1 {
		perWafer := (cfg.PP + pipeWafers - 1) / pipeWafers
		boundary := float64(perReplica.MicroBatchSize()*perReplica.SeqLen*cfg.Spec.Hidden) * units.FP16Bytes
		for s := 0; s+1 < cfg.PP; s++ {
			if (s+1)%perWafer == 0 { // wafer boundary
				t := cfg.Wafer.W2W.Latency + boundary/cfg.Wafer.W2W.Bandwidth
				costs[s].CommFwd = t
				costs[s].CommBwd = t
			}
		}
	}

	res, err := pipeline.Simulate(costs, n)
	if err != nil {
		return Report{}, err
	}
	iter := res.IterationTime

	// Checkpoint-balancing transfers: written forward, read backward. With
	// D2D bandwidth ≥ DRAM bandwidth the transfer hides behind the DRAM
	// access (§IV-C-2); any shortfall is exposed.
	var overflow float64
	if strat.Recompute != nil {
		overflow = strat.Recompute.OverflowBytes
	}
	if overflow > 0 {
		d2d := m.LinkBandwidth
		dram := cfg.Wafer.DieDRAMBandwidth()
		if d2d < dram {
			exposed := 2 * overflow * (1/d2d - 1/dram)
			iter += exposed
		}
	}

	// Data-parallel gradient all-reduce at iteration end. Gradients are
	// FP16 copies of the weights; the collective runs on the D2D fabric
	// (intra-wafer) or the W2W links (cross-wafer), overlapping partially
	// with the backward pass.
	if dp > 1 {
		gradBytes := cfg.Spec.EffectiveParams() * units.FP16Bytes / float64(cfg.TP*cfg.PP)
		bw := m.LinkBandwidth
		if wafers/pipeWafers > 1 && cfg.Wafer.W2W.Bandwidth > 0 {
			bw = math.Min(bw, cfg.Wafer.W2W.Bandwidth)
		}
		// Concurrent per-shard rings share mesh links; congestion grows
		// with the replica count.
		congestion := 1 + math.Log2(float64(dp))/2
		arTime := 2 * float64(dp-1) / float64(dp) * gradBytes / bw * congestion
		const overlap = 0.5
		iter += arTime * (1 - overlap)
	}

	// Per-die memory accounting and OOM check.
	perDie, dramUtil, err := memoryMap(cfg, sm, m, strat, n)
	if err != nil {
		return Report{}, err
	}

	// Work and utilisation metrics.
	useful := cfg.Spec.FLOPsPerIteration(cfg.Workload)
	var busy, extra float64
	for s := range computes {
		busy += (computes[s].FwdCompute + computes[s].BwdCompute) * float64(n)
		extra += computes[s].RecomputeExtra * float64(n)
	}
	recompFrac := 0.0
	if busy > 0 {
		recompFrac = extra / busy
	}
	var linkUtil float64
	for s := range computes {
		linkUtil += computes[s].MeanLinkUtilization
	}
	if len(computes) > 0 {
		linkUtil /= float64(len(computes))
	}
	throughput := useful / iter
	return Report{
		IterationTime:       iter,
		Throughput:          throughput,
		TotalThroughput:     throughput * (1 + recompFrac),
		RecomputeFraction:   recompFrac,
		BubbleFraction:      res.BubbleFraction,
		ComputeUtilization:  busy / (float64(cfg.PP) * iter),
		DRAMUtilization:     dramUtil,
		MeanLinkUtilization: linkUtil,
		PerDieMemory:        perDie,
		PerStage:            computes,
		DP:                  dp,
		MicroBatches:        n,
	}, nil
}

// memoryMap builds the per-die memory occupancy (Fig 17 heatmap) of the
// stage model's stages and verifies capacity. Accumulation runs on a dense
// per-die-index vector; the map is materialised once at the end for the
// report.
func memoryMap(cfg engine.Config, sm engine.StageModel, m *mesh.Mesh, strat Strategy, n int) (map[mesh.DieID]float64, float64, error) {
	dense := make([]float64, m.Dies())
	touched := make([]bool, m.Dies())
	charge := func(d mesh.DieID, bytes float64) {
		i := m.DieIndex(d)
		dense[i] += bytes
		touched[i] = true
	}
	layers := sm.Layers
	capacity := cfg.Wafer.DieDRAM()
	// For multi-wafer pipelines the placement regions repeat per wafer;
	// charge only the first wafer's stages (they hold the deepest 1F1B
	// retention and are the binding memory constraint).
	stagesToCharge := len(strat.Placement.Regions)
	if strat.PipelineWafers > 1 {
		stagesToCharge = (cfg.PP + strat.PipelineWafers - 1) / strat.PipelineWafers
	}
	for s, region := range strat.Placement.Regions {
		if s >= stagesToCharge {
			break
		}
		modelP := memory.ModelPPerDie(cfg.Spec, layers[s], cfg.TP, memory.StageExtraParams(cfg.Spec, s, cfg.PP))
		var ckptStage float64
		if strat.Recompute != nil {
			ckptStage = strat.Recompute.StageCkptBytes[s]
			// Subtract what this stage ships to helpers.
			for _, p := range strat.Recompute.Pairs {
				if p.Sender == s {
					ckptStage -= p.Bytes
				}
			}
		} else {
			// No recomputation plan: every operator's activation is
			// checkpointed for the 1F1B retention window.
			retained := pipeline.RetainedMicroBatches(cfg.PP, n, s)
			ckptStage = (sm.Graph.CheckpointBytes() + sm.Graph.BoundaryBytes()) *
				float64(layers[s]) * float64(retained) * float64(cfg.TP)
		}
		perDieCkpt := math.Max(ckptStage, 0) / float64(len(region.Dies))
		for _, d := range region.Dies {
			charge(d, modelP+perDieCkpt)
		}
	}
	// Helper-die allocations. For multi-wafer pipelines the placement
	// regions alias physical dies across wafers, so per-die charging would
	// double-count: the aggregate feasibility is already guaranteed by the
	// GCMR budget, and the per-die map covers wafer 0 only.
	if strat.PipelineWafers <= 1 {
		for _, a := range strat.Allocations {
			charge(a.Die, a.Bytes)
		}
	}
	// Ascending die-index iteration is the canonical DieLess order: the
	// mean-utilisation float sum and the first-reported OOM die must not
	// depend on map iteration order (the evaluation cache and parallel
	// search rely on bit-identical reports).
	var sum float64
	count := 0
	for i, used := range dense {
		if !touched[i] {
			continue
		}
		if used > capacity*1.0001 {
			return nil, 0, fmt.Errorf("sim: die %v OOM: %.1f GB used, %.1f GB capacity", m.DieAt(i), used/1e9, capacity/1e9)
		}
		sum += used / capacity
		count++
	}
	util := 0.0
	if count > 0 {
		util = sum / float64(count)
	}
	perDie := make(map[mesh.DieID]float64, count)
	for i, used := range dense {
		if touched[i] {
			perDie[m.DieAt(i)] = used
		}
	}
	return perDie, util, nil
}
