// Package model defines the large-model workload descriptions used by the
// WATOS framework: dense transformers (Llama, GPT), mixture-of-experts
// models (GShard, DeepSeek-V3, Qwen3-Next), and the emerging architectures of
// §VI-C (state-space models, diffusion transformers, generative
// recommenders). A model is described structurally — layers, hidden sizes,
// attention shape, expert configuration — and the package derives parameter
// counts, per-token FLOPs and activation footprints from that structure.
package model

import (
	"fmt"

	"repro/internal/units"
)

// Arch identifies the model architecture family; the operator graph builder
// switches on it (the framework is operator-centric, §VI-C).
type Arch int

const (
	// Transformer is a standard decoder-only dense transformer.
	Transformer Arch = iota
	// MoETransformer replaces the dense FFN with routed experts.
	MoETransformer
	// SSM is a state-space model (Mamba-style selective scan blocks).
	SSM
	// LinearAttention is a gated linear-attention hybrid (Qwen3-Next style).
	LinearAttention
	// DiffusionTransformer is a DiT image/video generator (SD 3.5 style).
	DiffusionTransformer
	// GenerativeRecommender is a trillion-embedding sequential transducer
	// (HSTU/GR style) with a transformer backbone.
	GenerativeRecommender
)

func (a Arch) String() string {
	switch a {
	case Transformer:
		return "transformer"
	case MoETransformer:
		return "moe-transformer"
	case SSM:
		return "ssm"
	case LinearAttention:
		return "linear-attention"
	case DiffusionTransformer:
		return "diffusion-transformer"
	case GenerativeRecommender:
		return "generative-recommender"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// MoEConfig describes the expert layout of a mixture-of-experts model.
type MoEConfig struct {
	// Experts is the number of routed experts per MoE layer.
	Experts int
	// TopK experts are activated per token.
	TopK int
	// SharedExperts are always-active experts (DeepSeek-V3 style).
	SharedExperts int
	// ExpertFFNHidden is the intermediate size of one expert.
	ExpertFFNHidden int
	// DenseLayers at the front of the network use a dense FFN instead.
	DenseLayers int
	// DenseFFNHidden is the intermediate size of those dense layers.
	DenseFFNHidden int
}

// Spec is a complete structural model description.
type Spec struct {
	Name   string
	Arch   Arch
	Layers int
	// Hidden is the model (residual-stream) dimension H.
	Hidden int
	// Heads and KVHeads give the attention shape (KVHeads < Heads for GQA).
	Heads, KVHeads int
	// FFNHidden is the dense FFN intermediate size (per expert for MoE —
	// see MoE.ExpertFFNHidden which overrides when set).
	FFNHidden int
	// GatedFFN marks SwiGLU-style FFNs with three weight matrices.
	GatedFFN bool
	Vocab    int
	// DefaultSeqLen is the training sequence length S used when the
	// workload does not override it.
	DefaultSeqLen int
	MoE           MoEConfig
	// SSMStateDim is the per-channel state dimension for SSM blocks.
	SSMStateDim int
	// EmbeddingParams adds out-of-backbone parameters (recommender
	// embedding tables); these are sharded by DP only, not TP/PP.
	EmbeddingParams float64
	// ParamOverride, when positive, pins the published parameter count;
	// Params() still derives the structural count for validation.
	ParamOverride float64
}

func (s Spec) headDim() int {
	if s.Heads == 0 {
		return 0
	}
	return s.Hidden / s.Heads
}

// kvProjCols returns the total output columns of the K and V projections
// (smaller than 2H under grouped-query attention).
func (s Spec) kvProjCols() int {
	kv := s.KVHeads
	if kv == 0 {
		kv = s.Heads
	}
	return 2 * kv * s.headDim()
}

// AttentionParamsPerLayer returns attention weight parameters of one layer.
func (s Spec) AttentionParamsPerLayer() float64 {
	h := float64(s.Hidden)
	q := h * h                        // Q projection
	kv := h * float64(s.kvProjCols()) // K and V projections
	o := h * h                        // output projection
	return q + kv + o
}

// ffnParams returns FFN parameters for a given intermediate size.
func (s Spec) ffnParams(inter int) float64 {
	h, f := float64(s.Hidden), float64(inter)
	if s.GatedFFN {
		return 3 * h * f // gate, up, down
	}
	return 2 * h * f
}

// FFNParamsPerLayer returns the FFN (or expert-aggregate) parameters of one
// layer, counting all experts for MoE models.
func (s Spec) FFNParamsPerLayer(layer int) float64 {
	if s.Arch == MoETransformer || (s.Arch == LinearAttention && s.MoE.Experts > 0) {
		if layer < s.MoE.DenseLayers {
			return s.ffnParams(s.MoE.DenseFFNHidden)
		}
		expert := s.ffnParams(s.MoE.ExpertFFNHidden)
		router := float64(s.Hidden * s.MoE.Experts)
		return float64(s.MoE.Experts+s.MoE.SharedExperts)*expert + router
	}
	return s.ffnParams(s.FFNHidden)
}

// ssmParamsPerLayer returns the parameters of one SSM block: input/output
// projections, the 1D convolution, and the selective-scan parameters.
func (s Spec) ssmParamsPerLayer() float64 {
	h := float64(s.Hidden)
	inner := 2 * h // Mamba expands by 2
	proj := h*2*inner + inner*h
	conv := inner * 4
	scan := inner * float64(s.SSMStateDim) * 3
	return proj + conv + scan
}

// Params returns the structural parameter count of the model (weights only).
func (s Spec) Params() float64 {
	var body float64
	for l := 0; l < s.Layers; l++ {
		switch s.Arch {
		case SSM:
			body += s.ssmParamsPerLayer() + 2*float64(s.Hidden)
		default:
			body += s.AttentionParamsPerLayer() + s.FFNParamsPerLayer(l) + 2*float64(s.Hidden)
		}
	}
	embed := float64(s.Vocab*s.Hidden) + s.EmbeddingParams
	return body + embed
}

// EffectiveParams returns the published parameter count when pinned, else
// the structural count. Memory budgeting uses this value.
func (s Spec) EffectiveParams() float64 {
	if s.ParamOverride > 0 {
		return s.ParamOverride
	}
	return s.Params()
}

// ActiveFFNFraction returns the fraction of FFN parameters touched per token
// (TopK+shared over total for MoE, 1 for dense).
func (s Spec) ActiveFFNFraction() float64 {
	if s.MoE.Experts == 0 {
		return 1
	}
	return float64(s.MoE.TopK+s.MoE.SharedExperts) / float64(s.MoE.Experts+s.MoE.SharedExperts)
}

// FLOPsPerTokenForward returns forward-pass FLOPs for one token at sequence
// length seq (attention score/context terms scale with S).
func (s Spec) FLOPsPerTokenForward(seq int) float64 {
	var f float64
	h := float64(s.Hidden)
	for l := 0; l < s.Layers; l++ {
		switch s.Arch {
		case SSM:
			f += 2 * s.ssmParamsPerLayer()
		default:
			f += 2 * s.AttentionParamsPerLayer()
			// Attention score + context GEMMs: 2·2·S·H per token
			// (causal halves it).
			f += 2 * float64(seq) * h
			f += 2 * s.FFNParamsPerLayer(l) * s.ActiveFFNFraction()
		}
	}
	f += 2 * float64(s.Vocab) * h // LM head
	return f
}

// FLOPsPerIteration returns total training FLOPs for one iteration of the
// workload: forward + backward (2×) over every token.
func (s Spec) FLOPsPerIteration(w Workload) float64 {
	tokens := float64(w.GlobalBatch * w.SeqLen)
	return 3 * s.FLOPsPerTokenForward(w.SeqLen) * tokens
}

// Workload describes one training iteration's shape.
type Workload struct {
	// GlobalBatch is the number of sequences per iteration.
	GlobalBatch int
	// MicroBatch is the per-pipeline-stage micro-batch size.
	MicroBatch int
	// SeqLen is the training sequence length.
	SeqLen int
}

// MicroBatchSize returns the sequences per micro-batch: MicroBatch, with an
// unset (zero) MicroBatch meaning 1.
func (w Workload) MicroBatchSize() int {
	return max(w.MicroBatch, 1)
}

// MicroBatches returns the number of micro-batches per iteration (n in the
// 1F1B schedule).
func (w Workload) MicroBatches() int {
	if w.MicroBatch <= 0 {
		return 1
	}
	n := w.GlobalBatch / w.MicroBatch
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks the workload shape.
func (w Workload) Validate() error {
	if w.GlobalBatch <= 0 || w.SeqLen <= 0 {
		return fmt.Errorf("model: workload needs positive batch and sequence length, got %+v", w)
	}
	if w.MicroBatch < 0 || w.MicroBatch > w.GlobalBatch {
		return fmt.Errorf("model: micro-batch %d out of range for global batch %d", w.MicroBatch, w.GlobalBatch)
	}
	return nil
}

// DefaultWorkload returns the evaluation workload used when an experiment
// does not specify one: batch 512, micro-batch 1 per stage, model default
// sequence length.
func DefaultWorkload(s Spec) Workload {
	seq := s.DefaultSeqLen
	if seq == 0 {
		seq = 4096
	}
	return Workload{GlobalBatch: 512, MicroBatch: 4, SeqLen: seq}
}

// ModelPBytes returns the "modelP" footprint of the paper (§IV-A): weights,
// gradients and optimizer states under mixed-precision Adam — the part of
// training state that must always be resident.
func (s Spec) ModelPBytes() float64 {
	return s.EffectiveParams() * units.BytesPerParamMixed
}
