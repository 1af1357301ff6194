// Package baselines implements the comparison systems of the WATOS
// evaluation: the Megatron-LM GPU baseline (§V-C "MG-GPU"), Megatron's
// scheduling policy transplanted onto the wafer ("MG-wafer"), the Cerebras
// weight-streaming strategy, and the seven DSE frameworks of Fig 20 and
// Table I, each reproduced as the subset of optimisations the paper credits
// it with, run through this repository's search and evaluator.
package baselines

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/units"
)

// GPUReport summarises a GPU-cluster iteration.
type GPUReport struct {
	IterationTime float64
	Throughput    float64 // useful FLOP/s
	TP, PP, DP    int
	// Recomputed reports whether activation recomputation was required to
	// fit memory.
	Recomputed bool
	// ExposedCommTime is communication not overlapped with compute
	// (Fig 1's "GPU Exposed Comm").
	ExposedCommTime float64
	ComputeTime     float64
}

// gpuMFU is the model-FLOPs utilisation of a tuned Megatron run on GPUs
// with fine-grained micro-batches (mb=1 1F1B schedules keep Blackwell-class
// GEMMs well below peak).
const gpuMFU = 0.30

// MegatronGPU models Megatron-LM on a DGX-class system: TP capped at the
// NVLink domain (8), PP grown until modelP fits, DP over the remainder, ring
// collectives on the NVLink fabric, 1F1B pipelining with the standard bubble
// term, and full recomputation when activations overflow.
func MegatronGPU(sys hw.GPUSystem, spec model.Spec, w model.Workload) (GPUReport, error) {
	if err := w.Validate(); err != nil {
		return GPUReport{}, err
	}
	gpus := sys.GPUs()
	// Megatron heuristic: TP = min(8, GPUs per node).
	tp := 8
	if sys.GPUsPerNode < tp {
		tp = sys.GPUsPerNode
	}
	// Grow PP until weights+grads+optimizer fit the TP×PP group.
	modelP := spec.ModelPBytes()
	pp := 1
	for pp <= gpus/tp && modelP > float64(tp*pp)*sys.HBMPerGPU*0.9 {
		pp++
	}
	if tp*pp > gpus || modelP > float64(tp*pp)*sys.HBMPerGPU*0.9 {
		return GPUReport{}, fmt.Errorf("baselines: %s does not fit %d GPUs", spec.Name, gpus)
	}
	if pp > spec.Layers {
		return GPUReport{}, fmt.Errorf("baselines: pipeline depth %d exceeds %d layers", pp, spec.Layers)
	}
	dp := gpus / (tp * pp)
	if dp < 1 {
		dp = 1
	}

	// Activation memory check: retained micro-batches at stage 0.
	mb := w.MicroBatchSize()
	perReplicaBatch := w.GlobalBatch / dp
	if perReplicaBatch < 1 {
		perReplicaBatch = 1
	}
	n := perReplicaBatch / mb
	if n < 1 {
		n = 1
	}
	actPerLayerPerMB := activationBytesPerLayer(spec, mb, w.SeqLen) / float64(tp)
	layersPerStage := float64(spec.Layers) / float64(pp)
	retained := float64(min(pp, n))
	actNeed := actPerLayerPerMB * layersPerStage * retained
	free := sys.HBMPerGPU - modelP/float64(tp*pp)
	recomputed := actNeed > free
	recompFactor := 1.0
	if recomputed {
		// Full recomputation re-executes the forward pass during backward:
		// +1/3 of total compute.
		recompFactor = 4.0 / 3.0
	}

	// Compute time: per-replica share of the iteration FLOPs.
	useful := spec.FLOPsPerIteration(w)
	compute := useful / float64(dp) / (float64(tp*pp) * sys.GPUFLOPS * gpuMFU) * recompFactor

	// TP all-reduce: 2 per layer per micro-batch direction, NVLink fabric.
	arBytes := 2 * float64(tp-1) / float64(tp) * float64(mb*w.SeqLen*spec.Hidden) * units.FP16Bytes
	arPerLayer := 2 * (sys.LinkLatency + arBytes/sys.NVLinkBandwidth)
	commTP := arPerLayer * float64(spec.Layers) * float64(n) * 2 // fwd+bwd
	// NVLink all-to-all overlaps poorly with GEMMs under Megatron; a
	// fraction is exposed.
	exposedTP := commTP * 0.6

	// PP comm: boundary tensors between stages.
	boundary := float64(mb*w.SeqLen*spec.Hidden) * units.FP16Bytes
	ppBW := sys.NVLinkBandwidth
	if tp*pp > sys.GPUsPerNode {
		ppBW = sys.InterNodeBandwidth
	}
	commPP := float64(pp-1) * (boundary/ppBW + sys.LinkLatency) * 2 * float64(n)
	// Pipeline bubble: (p−1)/(n+p−1) of the compute.
	bubble := compute * float64(pp-1) / float64(n+pp-1)

	// DP gradient all-reduce.
	exposedDP := 0.0
	if dp > 1 {
		gradBytes := spec.EffectiveParams() * units.FP16Bytes / float64(tp*pp)
		bw := sys.NVLinkBandwidth
		if dp*tp*pp > sys.GPUsPerNode {
			bw = sys.InterNodeBandwidth
		}
		exposedDP = 2 * float64(dp-1) / float64(dp) * gradBytes / bw * 0.5
	}

	exposed := exposedTP + commPP + exposedDP
	iter := compute + bubble + exposed
	return GPUReport{
		IterationTime:   iter,
		Throughput:      useful / iter,
		TP:              tp,
		PP:              pp,
		DP:              dp,
		Recomputed:      recomputed,
		ExposedCommTime: exposed,
		ComputeTime:     compute + bubble,
	}, nil
}

// activationBytesPerLayer approximates the full (unsharded) per-layer
// activation checkpoint footprint of one micro-batch.
func activationBytesPerLayer(spec model.Spec, mb, seq int) float64 {
	tokens := float64(mb * seq)
	h := float64(spec.Hidden)
	inter := float64(spec.FFNHidden)
	if spec.MoE.Experts > 0 {
		inter = float64(spec.MoE.ExpertFFNHidden * spec.MoE.TopK)
	}
	// Megatron's standard estimate: ~(16 + 2·inter/h + attn terms)·B·S·H.
	return tokens * (10*h + 3*inter) * units.FP16Bytes / 2
}
