package predictor

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/opgraph"
)

// MLP is the "DNN model" of §IV-B: a small feed-forward network that
// predicts operator latency and memory footprint from operator and hardware
// features. The paper trains it on measured profiles; here it is trained on
// the tile-level model's estimates instead.
//
// Architecture: featureDim → hidden (tanh) → hidden (tanh) → 2 outputs
// (log latency, log memory). Trained with mini-batch SGD + momentum on
// log-space targets.
type MLP struct {
	hidden     int
	w1, w2, w3 [][]float64
	b1, b2, b3 []float64
	featMean   []float64
	featStd    []float64
	tgtMean    [2]float64
	tgtStd     [2]float64
	trained    bool
}

const featureDim = 11

// features encodes an (operator, die) pair. Log scales keep the dynamic
// range tractable.
func features(op opgraph.Op, die DieContext) []float64 {
	lg := func(v float64) float64 { return math.Log1p(math.Max(v, 0)) }
	kindOneHot := [3]float64{}
	switch op.Kind {
	case opgraph.GEMM:
		kindOneHot[0] = 1
	case opgraph.FlashAttn:
		kindOneHot[1] = 1
	default:
		kindOneHot[2] = 1
	}
	return []float64{
		lg(op.FwdFLOPs),
		lg(float64(op.M)),
		lg(float64(op.K)),
		lg(float64(op.N)),
		lg(op.InputBytes + op.OutputBytes),
		lg(op.WeightBytes),
		kindOneHot[0], kindOneHot[1], kindOneHot[2],
		lg(float64(die.Cores) * die.CorePeakFLOPS),
		lg(die.DRAMBandwidth),
	}
}

// PredictorSignature identifies the network by its architecture and a
// digest of every behaviour-determining parameter (weights, biases,
// normalisation statistics), so two MLPs sign equal exactly when they
// predict identically.
func (m *MLP) PredictorSignature() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	w64 := func(v float64) {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf)
	}
	for _, mat := range [][][]float64{m.w1, m.w2, m.w3} {
		for _, row := range mat {
			for _, v := range row {
				w64(v)
			}
		}
	}
	for _, vec := range [][]float64{m.b1, m.b2, m.b3, m.featMean, m.featStd} {
		for _, v := range vec {
			w64(v)
		}
	}
	for _, v := range [...]float64{m.tgtMean[0], m.tgtMean[1], m.tgtStd[0], m.tgtStd[1]} {
		w64(v)
	}
	return fmt.Sprintf("mlp(h=%d,trained=%v,%016x)", m.hidden, m.trained, h.Sum64())
}

// NewMLP creates an untrained network with the given hidden width.
func NewMLP(hidden int, rng *rand.Rand) *MLP {
	if hidden <= 0 {
		hidden = 24
	}
	m := &MLP{hidden: hidden}
	initLayer := func(rows, cols int) [][]float64 {
		w := make([][]float64, rows)
		scale := math.Sqrt(2.0 / float64(cols))
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = rng.NormFloat64() * scale
			}
		}
		return w
	}
	m.w1 = initLayer(hidden, featureDim)
	m.w2 = initLayer(hidden, hidden)
	m.w3 = initLayer(2, hidden)
	m.b1 = make([]float64, hidden)
	m.b2 = make([]float64, hidden)
	m.b3 = make([]float64, 2)
	return m
}

// Sample is one training example.
type Sample struct {
	Op  opgraph.Op
	Die DieContext
}

// Train fits the network on the given samples against the tile-level ground
// truth, returning the final mean absolute relative error on a held-out
// split (the Fig 10b metric).
func (m *MLP) Train(samples []Sample, epochs int, rng *rand.Rand) (holdoutErr float64, err error) {
	if len(samples) < 10 {
		return 0, fmt.Errorf("predictor: need at least 10 samples, got %d", len(samples))
	}
	gt := TileLevel{}
	type ex struct {
		x []float64
		y [2]float64 // log latency, log memory
	}
	exs := make([]ex, 0, len(samples))
	for _, s := range samples {
		est := gt.Predict(s.Op, s.Die)
		if !isFinite(est.Latency) || est.Latency <= 0 || est.MemoryBytes <= 0 {
			continue
		}
		exs = append(exs, ex{
			x: features(s.Op, s.Die),
			y: [2]float64{math.Log(est.Latency), math.Log(est.MemoryBytes)},
		})
	}
	if len(exs) < 10 {
		return 0, fmt.Errorf("predictor: too few finite ground-truth samples")
	}
	rng.Shuffle(len(exs), func(i, j int) { exs[i], exs[j] = exs[j], exs[i] })
	split := len(exs) * 9 / 10
	train, hold := exs[:split], exs[split:]

	// Feature normalisation from the training split.
	m.featMean = make([]float64, featureDim)
	m.featStd = make([]float64, featureDim)
	for _, e := range train {
		for j, v := range e.x {
			m.featMean[j] += v
		}
	}
	for j := range m.featMean {
		m.featMean[j] /= float64(len(train))
	}
	for _, e := range train {
		for j, v := range e.x {
			d := v - m.featMean[j]
			m.featStd[j] += d * d
		}
	}
	for j := range m.featStd {
		m.featStd[j] = math.Sqrt(m.featStd[j]/float64(len(train))) + 1e-8
	}
	// Target normalisation: log latencies centre around −10 with a wide
	// spread; training on standardised targets keeps gradients tame.
	for _, e := range train {
		m.tgtMean[0] += e.y[0]
		m.tgtMean[1] += e.y[1]
	}
	m.tgtMean[0] /= float64(len(train))
	m.tgtMean[1] /= float64(len(train))
	for _, e := range train {
		d0 := e.y[0] - m.tgtMean[0]
		d1 := e.y[1] - m.tgtMean[1]
		m.tgtStd[0] += d0 * d0
		m.tgtStd[1] += d1 * d1
	}
	m.tgtStd[0] = math.Sqrt(m.tgtStd[0]/float64(len(train))) + 1e-8
	m.tgtStd[1] = math.Sqrt(m.tgtStd[1]/float64(len(train))) + 1e-8
	norm := func(y [2]float64) [2]float64 {
		return [2]float64{(y[0] - m.tgtMean[0]) / m.tgtStd[0], (y[1] - m.tgtMean[1]) / m.tgtStd[1]}
	}

	if epochs <= 0 {
		epochs = 200
	}
	lr := 0.01
	mom := 0.9
	v1 := zerosLike(m.w1)
	v2 := zerosLike(m.w2)
	v3 := zerosLike(m.w3)
	vb1 := make([]float64, m.hidden)
	vb2 := make([]float64, m.hidden)
	vb3 := make([]float64, 2)

	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(train), func(i, j int) { train[i], train[j] = train[j], train[i] })
		if epoch == epochs*2/3 {
			lr *= 0.3
		}
		for _, e := range train {
			x := m.normalize(e.x)
			y := norm(e.y)
			// Forward.
			h1, h2, out := m.forward(x)
			// Backward (squared error on both outputs).
			dOut := [2]float64{out[0] - y[0], out[1] - y[1]}
			dh2 := make([]float64, m.hidden)
			for i := 0; i < 2; i++ {
				for j := 0; j < m.hidden; j++ {
					dh2[j] += dOut[i] * m.w3[i][j]
				}
			}
			for j := range dh2 {
				dh2[j] *= 1 - h2[j]*h2[j]
			}
			dh1 := make([]float64, m.hidden)
			for i := 0; i < m.hidden; i++ {
				for j := 0; j < m.hidden; j++ {
					dh1[j] += dh2[i] * m.w2[i][j]
				}
			}
			for j := range dh1 {
				dh1[j] *= 1 - h1[j]*h1[j]
			}
			// Update with momentum.
			for i := 0; i < 2; i++ {
				for j := 0; j < m.hidden; j++ {
					v3[i][j] = mom*v3[i][j] - lr*dOut[i]*h2[j]
					m.w3[i][j] += v3[i][j]
				}
				vb3[i] = mom*vb3[i] - lr*dOut[i]
				m.b3[i] += vb3[i]
			}
			for i := 0; i < m.hidden; i++ {
				for j := 0; j < m.hidden; j++ {
					v2[i][j] = mom*v2[i][j] - lr*dh2[i]*h1[j]
					m.w2[i][j] += v2[i][j]
				}
				vb2[i] = mom*vb2[i] - lr*dh2[i]
				m.b2[i] += vb2[i]
			}
			for i := 0; i < m.hidden; i++ {
				for j := 0; j < featureDim; j++ {
					v1[i][j] = mom*v1[i][j] - lr*dh1[i]*x[j]
					m.w1[i][j] += v1[i][j]
				}
				vb1[i] = mom*vb1[i] - lr*dh1[i]
				m.b1[i] += vb1[i]
			}
		}
	}
	m.trained = true

	// Held-out mean absolute relative error on latency.
	var sum float64
	for _, e := range hold {
		_, _, out := m.forward(m.normalize(e.x))
		pred := math.Exp(out[0]*m.tgtStd[0] + m.tgtMean[0])
		truth := math.Exp(e.y[0])
		sum += math.Abs(pred-truth) / truth
	}
	if len(hold) > 0 {
		holdoutErr = sum / float64(len(hold))
	}
	return holdoutErr, nil
}

func (m *MLP) normalize(x []float64) []float64 {
	out := make([]float64, featureDim)
	for j := range out {
		out[j] = (x[j] - m.featMean[j]) / m.featStd[j]
	}
	return out
}

func (m *MLP) forward(x []float64) (h1, h2 []float64, out [2]float64) {
	h1 = make([]float64, m.hidden)
	for i := 0; i < m.hidden; i++ {
		s := m.b1[i]
		for j := 0; j < featureDim; j++ {
			s += m.w1[i][j] * x[j]
		}
		h1[i] = math.Tanh(s)
	}
	h2 = make([]float64, m.hidden)
	for i := 0; i < m.hidden; i++ {
		s := m.b2[i]
		for j := 0; j < m.hidden; j++ {
			s += m.w2[i][j] * h1[j]
		}
		h2[i] = math.Tanh(s)
	}
	for i := 0; i < 2; i++ {
		s := m.b3[i]
		for j := 0; j < m.hidden; j++ {
			s += m.w3[i][j] * h2[j]
		}
		out[i] = s
	}
	return h1, h2, out
}

// Predict implements Predictor. An untrained MLP falls back to the
// analytical model.
func (m *MLP) Predict(op opgraph.Op, die DieContext) Estimate {
	if !m.trained {
		return Analytical{}.Predict(op, die)
	}
	_, _, out := m.forward(m.normalize(features(op, die)))
	lat := math.Exp(out[0]*m.tgtStd[0] + m.tgtMean[0])
	mem := math.Exp(out[1]*m.tgtStd[1] + m.tgtMean[1])
	return Estimate{Latency: lat, MemoryBytes: mem, DRAMBytes: mem}
}

func zerosLike(w [][]float64) [][]float64 {
	out := make([][]float64, len(w))
	for i := range w {
		out[i] = make([]float64, len(w[i]))
	}
	return out
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
