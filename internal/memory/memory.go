// Package memory implements the training-memory accounting of the WATOS
// paper: the resident "modelP" state (weights, gradients, optimizer states —
// §IV-A), activation checkpoints scaled by the 1F1B retention rule, and the
// per-stage breakdown of Fig 5c (activation / weight / gradient / optimizer
// / under-utilisation).
package memory

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/pipeline"
	"repro/internal/units"
)

// Breakdown is the Fig 5c per-die memory decomposition, in bytes.
type Breakdown struct {
	Weights    float64
	Gradients  float64
	Optimizer  float64
	Activation float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.Weights + b.Gradients + b.Optimizer + b.Activation
}

// StagePlan describes how the model is split across one pipeline stage.
type StagePlan struct {
	// Layers assigned to this stage.
	Layers int
	// TP is the tensor-parallel width (dies per stage).
	TP int
	// Retained is the number of micro-batch checkpoints held (1F1B rule).
	Retained int
}

// SplitLayers distributes the model's layers across pp stages as evenly as
// possible (earlier stages take the remainder).
func SplitLayers(totalLayers, pp int) ([]int, error) {
	if pp <= 0 || totalLayers <= 0 {
		return nil, fmt.Errorf("memory: invalid split %d layers over %d stages", totalLayers, pp)
	}
	if pp > totalLayers {
		return nil, fmt.Errorf("memory: %d stages exceed %d layers", pp, totalLayers)
	}
	out := make([]int, pp)
	base, rem := totalLayers/pp, totalLayers%pp
	for s := range out {
		out[s] = base
		if s < rem {
			out[s]++
		}
	}
	return out, nil
}

// StageExtraParams returns the out-of-backbone parameters stage s of a
// pp-stage pipeline holds — the extraParams of ModelPPerDie: the embedding
// plus EmbeddingParams on the first stage, the LM head on the last.
func StageExtraParams(spec model.Spec, s, pp int) float64 {
	extra := 0.0
	if s == 0 {
		extra += float64(spec.Vocab*spec.Hidden) + spec.EmbeddingParams
	}
	if s == pp-1 && spec.Vocab > 0 {
		extra += float64(spec.Vocab * spec.Hidden)
	}
	return extra
}

// ModelPPerDie returns the per-die resident bytes of weights+grads+optimizer
// for a stage holding `layers` of the model across tp dies. The embedding
// and LM head are charged to the first and last stages respectively by the
// caller via extraParams (StageExtraParams).
func ModelPPerDie(spec model.Spec, layers, tp int, extraParams float64) float64 {
	layerParams := spec.EffectiveParams() / float64(spec.Layers)
	if spec.Vocab > 0 {
		// Exclude embedding/head from the per-layer share.
		embed := float64(spec.Vocab * spec.Hidden)
		layerParams = (spec.EffectiveParams() - embed - spec.EmbeddingParams) / float64(spec.Layers)
	}
	params := layerParams*float64(layers) + extraParams
	return params * units.BytesPerParamMixed / float64(tp)
}

// StageBreakdown returns the Fig 5c per-die breakdown for a stage: modelP
// split into its components plus the retained activation checkpoints.
func StageBreakdown(spec model.Spec, g *opgraph.LayerGraph, plan StagePlan, extraParams float64) Breakdown {
	modelP := ModelPPerDie(spec, plan.Layers, plan.TP, extraParams)
	// 2:2:12 of the 16 B/param mixed-precision budget.
	w := modelP * units.FP16Bytes / units.BytesPerParamMixed
	gr := modelP * units.FP16Bytes / units.BytesPerParamMixed
	opt := modelP - w - gr
	ckpt := (g.CheckpointBytes() + g.BoundaryBytes()) * float64(plan.Layers) * float64(plan.Retained)
	return Breakdown{Weights: w, Gradients: gr, Optimizer: opt, Activation: ckpt}
}

// PipelineProfile returns the per-stage per-die memory breakdowns for a
// (tp, pp) configuration with no recomputation — the Fig 5c experiment.
func PipelineProfile(spec model.Spec, w model.Workload, tp, pp int) ([]Breakdown, error) {
	layers, err := SplitLayers(spec.Layers, pp)
	if err != nil {
		return nil, err
	}
	g, err := opgraph.Build(spec, tp, w.MicroBatchSize(), w.SeqLen)
	if err != nil {
		return nil, err
	}
	n := w.MicroBatches()
	out := make([]Breakdown, pp)
	for s := 0; s < pp; s++ {
		out[s] = StageBreakdown(spec, g, StagePlan{
			Layers:   layers[s],
			TP:       tp,
			Retained: pipeline.RetainedMicroBatches(pp, n, s),
		}, StageExtraParams(spec, s, pp))
	}
	return out, nil
}

// FitsModelP checks the central scheduler's early-pruning condition
// (Alg 1 line 1): modelP must fit the aggregate memory of the model-parallel
// dies.
func FitsModelP(spec model.Spec, dies int, perDieCapacity float64) bool {
	return spec.ModelPBytes() <= float64(dies)*perDieCapacity
}
