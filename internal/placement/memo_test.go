package placement_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/placement"
)

// TestOptimizePricingCount pins how often the annealer bounds and prices a
// swap, on the Config3 pp 32 instance of BenchmarkAnnealSwap and
// BenchmarkOptimizePlacement (8 Mem_pairs), seeds 1–20. Both pricers must
// take exactly one bound per distinct (unordered stage pair, commit epoch)
// key of the memo-free reference trajectory, and there are fewer keys than
// non-degenerate proposals. Past the interning bound every bound is −Inf,
// so each key is priced once: prices == bounds == keys. With a Scorer, a
// bound above the committed cost rejects without a price whenever the
// Metropolis uniform clears it, while every accepted proposal was priced:
// accepts ≤ prices < bounds.
func TestOptimizePricingCount(t *testing.T) {
	const tp, pp, npairs = 1, 32, 8
	m := mesh.New(hw.Config3())
	_, w, err := benchutil.AnnealSubstrate(m, tp, pp, npairs)
	if err != nil {
		t.Fatal(err)
	}
	var proposals, keys, prices int
	for seed := int64(1); seed <= 20; seed++ {
		_, n, k, accepts, err := placement.ReferenceOptimize(m, tp, pp, w, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if k >= n {
			t.Fatalf("seed %d: %d distinct keys for %d non-degenerate proposals, want fewer", seed, k, n)
		}
		for _, useScorer := range []bool{true, false} {
			_, p, b, err := placement.OptimizeCounted(m, tp, pp, w, rand.New(rand.NewSource(seed)), useScorer)
			if err != nil {
				t.Fatal(err)
			}
			if b != k {
				t.Fatalf("seed %d (Scorer %v): took %d bounds, want %d distinct (pair, epoch) keys", seed, useScorer, b, k)
			}
			if useScorer && !(accepts <= p && p < b) {
				t.Fatalf("seed %d: priced %d swaps for %d bounds and %d accepted proposals, want accepts ≤ prices < bounds", seed, p, b, accepts)
			}
			if !useScorer && p != b {
				t.Fatalf("seed %d (past the bound): priced %d swaps for %d bounds, want one price per bound", seed, p, b)
			}
			if useScorer {
				prices += p
			}
		}
		proposals += n
		keys += k
	}
	t.Logf("seeds 1–20: %d non-degenerate proposals, %d distinct keys (%.1f%% answered by the memo), %d priced with a Scorer (%.1f%% of keys rejected on the bound)",
		proposals, keys, 100*float64(proposals-keys)/float64(proposals), prices, 100*float64(keys-prices)/float64(keys))
}
