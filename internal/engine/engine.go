// Package engine implements the TP and PP execution engines of §IV-E
// (Fig 13). The TP engine turns a layer's operator graph into per-die
// computation (via the predictor's tile-level cost model and the hybrid
// dataflow) plus intra-stage collectives on the stage's mesh region. The PP
// engine identifies inter-stage communication tasks (pipeline transfers and
// activation balancing), routes them over shortest paths, and assigns tasks
// to links with a punishment for already-occupied links to avoid contention.
package engine

import (
	"fmt"
	"math"

	"repro/internal/collective"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/pipeline"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/recompute"
)

// Config bundles the inputs of a stage-cost evaluation.
type Config struct {
	Wafer      hw.WaferConfig
	Spec       model.Spec
	Workload   model.Workload
	TP, PP     int
	Collective collective.Algorithm
	Predictor  predictor.Predictor
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.TP < 1 || c.PP < 1 {
		return fmt.Errorf("engine: invalid tp=%d pp=%d", c.TP, c.PP)
	}
	if c.Predictor == nil {
		return fmt.Errorf("engine: nil predictor")
	}
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.Spec.Layers < c.PP {
		return fmt.Errorf("engine: %d pipeline stages exceed %d layers", c.PP, c.Spec.Layers)
	}
	return nil
}

// StageCompute details one stage's per-micro-batch execution.
type StageCompute struct {
	// Layers assigned to the stage.
	Layers int
	// FwdCompute and BwdCompute are per-micro-batch compute times
	// (excluding collectives and recomputation).
	FwdCompute, BwdCompute float64
	// FwdCollective and BwdCollective are the tensor-parallel all-reduce
	// times on the stage's region.
	FwdCollective, BwdCollective float64
	// RecomputeExtra is the per-micro-batch backward addition from the
	// recomputation plan.
	RecomputeExtra float64
	// DRAMBytes is per-micro-batch DRAM traffic (fwd+bwd).
	DRAMBytes float64
	// CollectiveLinkBytes is the per-micro-batch TP traffic per link.
	CollectiveLinkBytes map[mesh.Link]float64
	// MeanLinkUtilization is the Fig 5b metric for this stage's TP
	// collective.
	MeanLinkUtilization float64
}

// StageModel is the one stage model of a configuration: the recomputation
// scheduler profiles its stages from it (GCMR's FwdTime/BwdTime), and the
// evaluator scores the same stages (StageCosts) and charges their memory.
type StageModel struct {
	// Layers is each stage's layer count (memory.SplitLayers).
	Layers []int
	// Graph is one layer's operator graph at the workload's micro-batch
	// size.
	Graph *opgraph.LayerGraph
	// Fwd and Bwd are one layer's per-micro-batch compute times, DRAM its
	// fwd+bwd DRAM traffic and AllReduce its forward TP all-reduce payload.
	Fwd, Bwd, DRAM, AllReduce float64
}

// NewStageModel splits the layers over the stages, builds the layer graph
// and prices one layer with the predictor, rejecting an invalid latency.
func NewStageModel(cfg Config) (StageModel, error) {
	layers, err := memory.SplitLayers(cfg.Spec.Layers, cfg.PP)
	if err != nil {
		return StageModel{}, err
	}
	g, err := opgraph.Build(cfg.Spec, cfg.TP, cfg.Workload.MicroBatchSize(), cfg.Workload.SeqLen)
	if err != nil {
		return StageModel{}, err
	}
	sm := StageModel{Layers: layers, Graph: g}
	die := predictor.Context(cfg.Wafer)
	for _, op := range g.Ops {
		est := cfg.Predictor.Predict(op, die)
		if math.IsInf(est.Latency, 0) || math.IsNaN(est.Latency) {
			return StageModel{}, fmt.Errorf("engine: predictor returned invalid latency for %s", op.Name)
		}
		sm.Fwd += est.Latency
		// Backward compute scales with the op's FLOP ratio.
		ratio := 2.0
		if op.FwdFLOPs > 0 {
			ratio = op.BwdFLOPs / op.FwdFLOPs
		}
		sm.Bwd += est.Latency * ratio
		sm.DRAM += est.DRAMBytes * (1 + ratio)
		sm.AllReduce += op.AllReduceBytes
	}
	return sm, nil
}

// StageCosts computes per-stage pipeline costs for the placement's regions
// from sm, the stage model NewStageModel built for the valid cfg. extraBwd
// supplies the GCMR per-stage recomputation additions (nil = none).
func StageCosts(cfg Config, sm StageModel, m *mesh.Mesh, pl *placement.Placement, extraBwd []float64) ([]pipeline.StageCost, []StageCompute, error) {
	if len(pl.Regions) != cfg.PP {
		return nil, nil, fmt.Errorf("engine: placement has %d regions, want %d", len(pl.Regions), cfg.PP)
	}
	layers := sm.Layers

	costs := make([]pipeline.StageCost, cfg.PP)
	computes := make([]StageCompute, cfg.PP)
	// Inter-stage activation transfer: micro-batch boundary tensor.
	boundaryBytes := sm.Graph.BoundaryBytes()

	for s := 0; s < cfg.PP; s++ {
		region := pl.Regions[s].Dies
		var arFwd, arBwd float64
		var linkBytes map[mesh.Link]float64
		var busyVec []float64
		var meanUtil float64
		if cfg.TP > 1 && sm.AllReduce > 0 {
			// op.AllReduceBytes already carries the 2(t−1)/t wire factor
			// of Eq 1; the collective package applies the ring schedule
			// to the full tensor, so divide the factor back out.
			res, err := collective.AllReduce(m, region, sm.AllReduce/arFactor(cfg.TP), cfg.Collective)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: stage %d collective: %w", s, err)
			}
			arFwd = res.Time
			arBwd = res.Time // backward mirrors the forward collectives
			linkBytes = res.LinkBytes()
			busyVec = res.Loads.Vec()
			meanUtil = res.MeanLinkUtilization(m)
		}
		fwd := sm.Fwd*float64(layers[s]) + arFwd*float64(layers[s])
		extra := 0.0
		if extraBwd != nil && s < len(extraBwd) {
			extra = extraBwd[s]
		}
		bwd := sm.Bwd*float64(layers[s]) + arBwd*float64(layers[s]) + extra

		// Inter-stage comm: choose the min-conflict shortest path between
		// region anchors (PP engine link assignment).
		commFwd, commBwd := 0.0, 0.0
		if s+1 < cfg.PP {
			a := pl.Regions[s].Anchor()
			b := pl.Regions[s+1].Anchor()
			t := bestPathTime(m, a, b, boundaryBytes, busyVec)
			commFwd = t
			commBwd = t // gradient of the boundary tensor, same size
		}

		costs[s] = pipeline.StageCost{Fwd: fwd, Bwd: bwd, CommFwd: commFwd, CommBwd: commBwd}
		computes[s] = StageCompute{
			Layers:              layers[s],
			FwdCompute:          sm.Fwd * float64(layers[s]),
			BwdCompute:          sm.Bwd * float64(layers[s]),
			FwdCollective:       arFwd * float64(layers[s]),
			BwdCollective:       arBwd * float64(layers[s]),
			RecomputeExtra:      extra,
			DRAMBytes:           sm.DRAM * float64(layers[s]),
			CollectiveLinkBytes: linkBytes,
			MeanLinkUtilization: meanUtil,
		}
	}
	return costs, computes, nil
}

// arFactor returns 2(t−1)/t, the Eq 1 wire factor already baked into
// op.AllReduceBytes.
func arFactor(tp int) float64 {
	return 2 * float64(tp-1) / float64(tp)
}

// bestPathTime routes an inter-stage transfer over the lowest-cost shortest
// path, punishing links already carrying TP collective traffic (the PP
// engine's contention-avoiding link assignment, Fig 13 step 4). busy is the
// dense per-link traffic vector of the stage's collective (nil = idle).
func bestPathTime(m *mesh.Mesh, a, b mesh.DieID, bytes float64, busy []float64) float64 {
	if a == b {
		return 0
	}
	best := math.Inf(1)
	for _, p := range m.ShortestPathIDs(a, b) {
		t := float64(len(p)) * m.LinkLatency
		var penalty float64
		minBW := math.Inf(1)
		for _, id := range p {
			if bw := m.EffBW(int(id)); bw < minBW {
				minBW = bw
			}
			if busy != nil && busy[id] > 0 {
				penalty += 0.5 // occupied-link punishment factor
			}
		}
		if minBW <= 0 {
			continue
		}
		t += bytes / minBW * (1 + penalty)
		if t < best {
			best = t
		}
	}
	if math.IsInf(best, 1) {
		// No healthy shortest path: fall back to adaptive rerouting.
		p := m.ReroutePath(a, b)
		if p == nil {
			return math.Inf(1)
		}
		return m.TransferTime(p, bytes)
	}
	return best
}

// GCMRCostFn adapts predictor estimates into recomputation op costs (Eq 1
// collective term included).
func GCMRCostFn(cfg Config, m *mesh.Mesh) func(opgraph.Op) recompute.OpCost {
	die := predictor.Context(cfg.Wafer)
	return func(op opgraph.Op) recompute.OpCost {
		est := cfg.Predictor.Predict(op, die)
		var comm float64
		if op.AllReduceBytes > 0 {
			comm = m.LinkLatency + op.AllReduceBytes/m.LinkBandwidth
		}
		return recompute.OpCost{Latency: est.Latency, CommTime: comm}
	}
}
