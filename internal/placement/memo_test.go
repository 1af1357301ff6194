package placement_test

import (
	"math/rand"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/placement"
)

// TestOptimizePricingCount pins how often the annealer prices a swap, on
// the Config3 pp 32 instance of BenchmarkAnnealSwap and
// BenchmarkOptimizePlacement (8 Mem_pairs), seeds 1–20. Both pricers must
// price exactly once per distinct (unordered stage pair, commit epoch) key
// of the memo-free reference trajectory, and so fewer times than it makes
// non-degenerate proposals.
func TestOptimizePricingCount(t *testing.T) {
	const tp, pp, npairs = 1, 32, 8
	m := mesh.New(hw.Config3())
	_, w, err := benchutil.AnnealSubstrate(m, tp, pp, npairs)
	if err != nil {
		t.Fatal(err)
	}
	var proposals, prices int
	for seed := int64(1); seed <= 20; seed++ {
		_, n, keys, err := placement.ReferenceOptimize(m, tp, pp, w, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		for _, useScorer := range []bool{true, false} {
			_, got, err := placement.OptimizeCounted(m, tp, pp, w, rand.New(rand.NewSource(seed)), useScorer)
			if err != nil {
				t.Fatal(err)
			}
			if got != keys {
				t.Fatalf("seed %d (Scorer %v): priced %d swaps, want %d distinct (pair, epoch) keys", seed, useScorer, got, keys)
			}
		}
		if keys >= n {
			t.Fatalf("seed %d: priced %d swaps for %d non-degenerate proposals, want fewer", seed, keys, n)
		}
		proposals += n
		prices += keys
	}
	t.Logf("seeds 1–20: %d of %d non-degenerate proposals priced (%.1f%% answered by the memo)",
		prices, proposals, 100*float64(proposals-prices)/float64(proposals))
}
