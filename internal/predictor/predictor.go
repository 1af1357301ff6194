// Package predictor estimates per-operator execution latency, memory
// footprint and DRAM traffic on a compute die, reproducing the §IV-B
// prediction pipeline of the WATOS paper:
//
//   - a detailed tile-level performance model acts as the measurement
//     substrate (the paper profiles real kernels; this repository
//     substitutes the tile-level model's estimates for those profiles);
//   - an analytical first-order roofline model, which misses alignment
//     overheads and multi-level memory effects and therefore exhibits the
//     higher error of Fig 10b;
//   - a small feed-forward "DNN" predictor trained on samples from the
//     tile-level model, reproducing the low-error curve of Fig 10b;
//   - an offline lookup table used during exploration so repeated queries
//     are O(1) (§IV-F).
package predictor

import (
	"fmt"
	"math"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/opgraph"
)

// DieContext captures the hardware parameters an operator executes under.
type DieContext struct {
	// Cores is the number of compute cores on the die.
	Cores int
	// CorePeakFLOPS is the per-core MAC-array throughput.
	CorePeakFLOPS float64
	// VectorFLOPS is the per-core vector-unit throughput.
	VectorFLOPS float64
	// SRAMPerCore is the per-core shared SRAM in bytes.
	SRAMPerCore float64
	// MACWidth and MACHeight give the PE-array shape.
	MACWidth, MACHeight int
	// DRAMBandwidth is the die's DRAM access bandwidth, B/s.
	DRAMBandwidth float64
	// NoCBandwidth is the on-die NoC bisection bandwidth, B/s.
	NoCBandwidth float64
	// Health scales available compute in [0,1] (die degradation, §VI-D).
	Health float64
}

// Context derives a DieContext from a wafer configuration.
func Context(w hw.WaferConfig) DieContext {
	return DieContext{
		Cores:         w.Die.Cores(),
		CorePeakFLOPS: w.DiePeakFLOPS() / float64(w.Die.Cores()),
		VectorFLOPS:   w.Die.Core.VectorFLOPS,
		SRAMPerCore:   w.Die.Core.SRAMBytes,
		MACWidth:      w.Die.Core.MACWidth,
		MACHeight:     w.Die.Core.MACHeight,
		DRAMBandwidth: w.DieDRAMBandwidth(),
		NoCBandwidth:  w.Die.NoCBandwidth,
		Health:        1,
	}
}

// Estimate is a per-operator prediction.
type Estimate struct {
	// Latency is the operator execution time in seconds.
	Latency float64
	// MemoryBytes is the peak working memory during execution.
	MemoryBytes float64
	// DRAMBytes is the external memory traffic generated.
	DRAMBytes float64
}

// Predictor estimates operator cost on a die.
type Predictor interface {
	Predict(op opgraph.Op, die DieContext) Estimate
}

// Signature returns a semantic identity of a predictor: two predictors with
// equal signatures produce identical estimates for every (op, die) input.
// Stateless predictors are identified by type; stateful ones (LookupTable
// composition, trained MLP weights) implement PredictorSignature to fold
// their behaviour-determining state in. Persisted cache snapshots use this
// to decide whether cached results computed under another process's
// predictor are still valid.
func Signature(p Predictor) string {
	if p == nil {
		return "<nil>"
	}
	if s, ok := p.(interface{ PredictorSignature() string }); ok {
		return s.PredictorSignature()
	}
	return fmt.Sprintf("%T", p)
}

// validate rejects broken contexts early.
func (d DieContext) validate() error {
	if d.Cores <= 0 || d.CorePeakFLOPS <= 0 || d.DRAMBandwidth <= 0 {
		return fmt.Errorf("predictor: invalid die context %+v", d)
	}
	return nil
}

func (d DieContext) health() float64 {
	if d.Health <= 0 || d.Health > 1 {
		return 1
	}
	return d.Health
}

// TileLevel is the detailed tile-level performance model: it partitions the
// operator across the core array, tiles each core's share into SRAM using
// the hybrid-dataflow engine, and accounts for alignment padding, pipeline
// fill/drain, DRAM row-locality and NoC distribution — the "complex factors"
// (§IV-B) a first-order analytical model misses. It serves as ground truth
// for training and validating the DNN predictor.
type TileLevel struct{}

// Predict implements Predictor.
func (TileLevel) Predict(op opgraph.Op, die DieContext) Estimate {
	if err := die.validate(); err != nil {
		return Estimate{Latency: math.Inf(1)}
	}
	switch op.Kind {
	case opgraph.GEMM, opgraph.FlashAttn:
		return tileGEMM(op, die)
	default:
		return tileVector(op, die)
	}
}

func tileGEMM(op opgraph.Op, die DieContext) Estimate {
	m, k, n := op.M, op.K, op.N
	if m <= 0 || k <= 0 || n <= 0 {
		return tileVector(op, die)
	}
	// Distribute rows and columns across a near-square core grid.
	gridR := int(math.Sqrt(float64(die.Cores)))
	if gridR < 1 {
		gridR = 1
	}
	gridC := die.Cores / gridR
	perCore := dataflow.GEMM{
		S: ceilDiv(m, gridR),
		K: k,
		H: ceilDiv(n, gridC),
	}
	// Alignment: pad the per-core tile up to MAC-array multiples; the
	// padding executes but contributes no useful FLOPs. The SRAM tiling
	// already charges ragged tile edges, so only the residual MAC-row
	// padding applies here (square-rooted to avoid double counting).
	padS := roundUp(perCore.S, die.MACWidth)
	padH := roundUp(perCore.H, die.MACHeight)
	alignFactor := math.Sqrt(float64(padS*padH) / float64(perCore.S*perCore.H))

	tl := dataflow.Tile(perCore, die.SRAMPerCore, die.MACWidth, die.MACHeight)
	// Operand reuse happens at SRAM-tile granularity: the stationary tile
	// that Fig 14's EMA formulas keep resident is the SRAM block, not the
	// bare MAC array.
	df, _ := dataflow.Select(perCore, tl.TileS, tl.TileH)
	if op.Kind == opgraph.FlashAttn {
		// FlashAttention streams K/V blocks; it behaves like an
		// output-stationary schedule regardless of the generic selection.
		df = dataflow.OutputStationary
	}

	peak := float64(die.Cores) * die.CorePeakFLOPS * die.health()
	usefulFLOPs := op.FwdFLOPs
	computeTime := usefulFLOPs * alignFactor / (peak * tl.Utilization)

	// DRAM traffic from the selected dataflow's EMA at SRAM-tile reuse
	// granularity. Cores in the same grid row (column) share their input
	// (weight) blocks via NoC multicast, so DRAM is touched once per grid
	// row rather than once per core: scale by √cores, not cores.
	ema := dataflow.EMABytes(perCore, df, tl.TileS, tl.TileH) * math.Sqrt(float64(die.Cores))
	if op.Kind == opgraph.FlashAttn {
		// Flash attention's raison d'être: O(S·H) memory traffic instead
		// of O(S²).
		ema = (op.InputBytes + op.OutputBytes) * 2
	}
	weightTraffic := op.WeightBytes
	if op.TouchedWeightBytes > 0 {
		weightTraffic = op.TouchedWeightBytes
	}
	dramBytes := ema + weightTraffic
	// DRAM row locality: small tiles touch rows non-contiguously, reducing
	// effective bandwidth — the "multi-level memory effect".
	rowLocality := 0.7 + 0.3*math.Min(1, float64(tl.TileK)/256.0)
	dramTime := dramBytes / (die.DRAMBandwidth * rowLocality)

	// NoC distribution of inputs/outputs across cores.
	nocTime := (op.InputBytes + op.OutputBytes) / math.Max(die.NoCBandwidth, 1)

	latency := math.Max(computeTime, dramTime) + 0.15*nocTime + fixedLaunch
	mem := op.InputBytes + op.OutputBytes + op.WeightBytes +
		float64(die.Cores)*float64(tl.TileS*tl.TileK+tl.TileK*tl.TileH+tl.TileS*tl.TileH)*2
	return Estimate{Latency: latency, MemoryBytes: mem, DRAMBytes: dramBytes}
}

func tileVector(op opgraph.Op, die DieContext) Estimate {
	vec := float64(die.Cores) * die.VectorFLOPS * die.health()
	if vec <= 0 {
		vec = float64(die.Cores) * die.CorePeakFLOPS * 0.05
	}
	computeTime := op.FwdFLOPs / vec
	if op.Kind == opgraph.Scan {
		// Selective scans serialise along the sequence; parallel scan
		// recovers most but not all of the throughput.
		computeTime *= 1.6
	}
	weightTraffic := op.WeightBytes
	if op.TouchedWeightBytes > 0 {
		weightTraffic = op.TouchedWeightBytes
	}
	dramBytes := op.InputBytes + op.OutputBytes + weightTraffic
	dramTime := dramBytes / (die.DRAMBandwidth * 0.85)
	latency := math.Max(computeTime, dramTime) + fixedLaunch
	if op.Kind == opgraph.Router {
		// Token scatter/gather costs an extra NoC round.
		latency += dramBytes / math.Max(die.NoCBandwidth, 1)
	}
	return Estimate{
		Latency:     latency,
		MemoryBytes: op.InputBytes + op.OutputBytes + op.WeightBytes,
		DRAMBytes:   dramBytes,
	}
}

// fixedLaunch is the per-operator launch/controller overhead.
const fixedLaunch = 2e-6

// Analytical is the first-order roofline model of Fig 15's footnote:
// latency = max(FLOPs/peak, bytes/BW). It ignores tiling utilisation,
// alignment and row locality, so it systematically underestimates latency —
// the ~15-20% error band of Fig 10b.
type Analytical struct{}

// Predict implements Predictor.
func (Analytical) Predict(op opgraph.Op, die DieContext) Estimate {
	if err := die.validate(); err != nil {
		return Estimate{Latency: math.Inf(1)}
	}
	peak := float64(die.Cores) * die.CorePeakFLOPS * die.health()
	if op.Kind == opgraph.Vector || op.Kind == opgraph.Scan || op.Kind == opgraph.Router {
		peak = float64(die.Cores) * die.VectorFLOPS * die.health()
	}
	bytes := op.InputBytes + op.OutputBytes + op.WeightBytes
	latency := math.Max(op.FwdFLOPs/peak, bytes/die.DRAMBandwidth)
	return Estimate{
		Latency:     latency,
		MemoryBytes: bytes,
		DRAMBytes:   bytes,
	}
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func roundUp(a, b int) int {
	if b <= 0 {
		return a
	}
	return ceilDiv(a, b) * b
}
