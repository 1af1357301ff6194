package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
)

// boundWalk walks a Scorer of m's partition into pp regions of tp dies
// under w through proposals random swaps, committing only non-worse ones so
// the state approaches a local minimum, as late annealing does. Every
// proposal's SwapLowerBound must be at most its SwapCost, compared as
// floats. It returns how many bounds exceeded the committed cost.
func boundWalk(t *testing.T, m *mesh.Mesh, tp, pp int, w Workload, rng *rand.Rand, proposals int) (above int) {
	t.Helper()
	sc := NewScorer(m, partitionAnchors(t, m, tp, pp), w)
	for i := 0; i < proposals; i++ {
		x, y := rng.Intn(pp), rng.Intn(pp)
		if x == y {
			i--
			continue
		}
		lb, c := sc.SwapLowerBound(x, y), sc.SwapCost(x, y)
		if !(lb <= c) {
			t.Fatalf("proposal %d (%d,%d): SwapLowerBound = %v (%x) exceeds SwapCost = %v (%x)",
				i, x, y, lb, math.Float64bits(lb), c, math.Float64bits(c))
		}
		if lb > sc.Cost() {
			above++
		}
		if c <= sc.Cost() {
			sc.Commit(x, y)
		}
	}
	return above
}

// TestSwapLowerBoundBelowPrice pins that SwapLowerBound never exceeds
// SwapCost, on every interned topology and the 12×12 pp 128 scale wafer,
// seeds 1–20, each a random workload plus 8 random Mem_pairs walked
// through 500 proposals. The bound must also exceed the committed cost on
// at least 10% of proposals per topology, or the annealer could reject
// nothing on it and the check would be vacuous. The volumes subtest pins
// the range where the bound is taken.
func TestSwapLowerBoundBelowPrice(t *testing.T) {
	const walk = 500
	for _, tc := range append(internedTopologies(), topology{"scale12x12-pp128", scaleMesh(), 1, 128}) {
		t.Run(tc.name, func(t *testing.T) {
			above := 0
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				w := randomWorkload(rng, tc.pp)
				for i := 0; i < 8; i++ {
					w.Pairs = append(w.Pairs, memPair(rng.Intn(tc.pp), rng.Intn(tc.pp), rng.Float64()*3e9))
				}
				above += boundWalk(t, tc.m, tc.tp, tc.pp, w, rng, walk)
			}
			share := float64(above) / (20 * walk)
			t.Logf("bound above the committed cost on %.1f%% of %d proposals", 100*share, 20*walk)
			if share < 0.10 {
				t.Fatalf("bound above the committed cost on %.1f%% of proposals, want ≥ 10%%", 100*share)
			}
		})
	}
	t.Run("volumes", checkBoundVolumes)
}

// checkBoundVolumes pins the volumes where the bound is taken: zero,
// subnormal and limit volumes keep a finite bound that stays below every
// price; a volume just past the limit, a total past it, and negative, NaN
// or infinite volumes make it −Inf. The limit is
// MaxFloat64/4/((Cols+Rows)·(links+1)) of the mesh. Each case sets one
// pipeline volume or one valid pair's bytes on the Config3 pp 8 partition;
// the others are zero, or random subnormals in the subnormal case.
func checkBoundVolumes(t *testing.T) {
	tc := internedTopologies()[0]
	m, pp := tc.m, tc.pp
	limit := math.MaxFloat64 / 4 / float64((m.Cols+m.Rows)*(m.NumLinks()+1))
	for _, vc := range []struct {
		name   string
		v      float64
		twice  bool // the volume on both the pipeline edge and the pair
		finite bool
	}{
		{"zero", 0, false, true},
		{"subnormal", 0x1p-1060, false, true},
		{"at-limit", limit, false, true},
		{"past-limit", math.Nextafter(limit, math.Inf(1)), false, false},
		{"total-past-limit", limit, true, false},
		{"negative", -1e9, false, false},
		{"nan", math.NaN(), false, false},
		{"inf", math.Inf(1), false, false},
	} {
		for _, onPair := range []bool{false, true} {
			rng := rand.New(rand.NewSource(7))
			w := Workload{PipelineBytes: make([]float64, pp-1)}
			for i := 0; i < 8; i++ {
				w.Pairs = append(w.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), 0))
			}
			if vc.name == "subnormal" {
				for i := range w.PipelineBytes {
					w.PipelineBytes[i] = rng.Float64() * vc.v
				}
				for i := range w.Pairs {
					w.Pairs[i].Bytes = rng.Float64() * vc.v
				}
			}
			// An invalid pair's volume is never read, so it cannot void the
			// bound.
			w.Pairs = append(w.Pairs, memPair(0, pp, math.NaN()))
			w.Pairs[0] = memPair(0, pp-1, w.Pairs[0].Bytes)
			if onPair || vc.twice {
				w.Pairs[0].Bytes = vc.v
			}
			if !onPair || vc.twice {
				w.PipelineBytes[2] = vc.v
			}
			sc := NewScorer(m, partitionAnchors(t, m, tc.tp, pp), w)
			if lb := sc.SwapLowerBound(0, pp-1); vc.finite == math.IsInf(lb, -1) {
				t.Fatalf("%s (on a pair: %v): SwapLowerBound = %v, want finite %v", vc.name, onPair, lb, vc.finite)
			}
			if vc.finite {
				boundWalk(t, m, tc.tp, pp, w, rng, 500)
			}
		}
	}
}

// TestExpQuasiMonotone pins the property of math.Exp that the annealer's
// rejection on a bound relies on: stepping the argument down may raise the
// result, but never beyond Exp(x)·(1+2^-30) + 2^-1000. It checks 2^20
// seeded x in [−800, 0), half of them in [−748, −708] (where Exp turns
// subnormal and underflows) or within 2^-k of 0, each against x one ulp
// below, 2–64 ulps below and 10^-6·|x|·U below, and logs the largest rise
// of each step relative to Exp(x).
func TestExpQuasiMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rise [3]float64
	for i := 0; i < 1<<20; i++ {
		var x float64
		switch i % 4 {
		case 0, 1:
			x = -800 + 800*rng.Float64()
		case 2:
			x = -748 + 40*rng.Float64()
		default:
			x = -math.Ldexp(1-rng.Float64(), -rng.Intn(60))
		}
		ex := math.Exp(x)
		limit := ex*(1+0x1p-30) + 0x1p-1000
		for k, xd := range [3]float64{
			math.Nextafter(x, math.Inf(-1)),
			math.Float64frombits(math.Float64bits(x) + uint64(2+rng.Intn(63))),
			x - 1e-6*math.Abs(x)*rng.Float64(),
		} {
			e := math.Exp(xd)
			if !(e <= limit) {
				t.Fatalf("Exp(%v) = %v exceeds Exp(%v)·(1+2^-30) + 2^-1000 = %v", xd, e, x, limit)
			}
			if e > ex && ex > 0 {
				rise[k] = max(rise[k], (e-ex)/ex)
			}
		}
	}
	t.Logf("largest rise relative to Exp(x): one ulp %.3g, 2–64 ulps %.3g, 10^-6·|x|·U %.3g", rise[0], rise[1], rise[2])
}
