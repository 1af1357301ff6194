package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mesh"
)

// referenceOptimize is the annealer as it stood before the swap memo: the
// same proposals, cooling and acceptance rule, with every non-degenerate
// proposal priced by a full anchorCost evaluation of the swapped anchor
// table, undone on rejection. It also returns the number of those
// proposals, of the distinct (unordered stage pair, commit epoch) keys
// among them, which is how many bounds a memo invalidated on commit takes,
// and of the accepted proposals.
func referenceOptimize(m *mesh.Mesh, tp, pp int, w Workload, rng *rand.Rand) (p *Placement, proposals, keys, accepts int, err error) {
	base, err := Partition(m, tp, pp)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	anchors := make([]mesh.DieID, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	perm := make([]int, pp)
	for i := range perm {
		perm[i] = i
	}
	build := func(perm []int) *Placement {
		regions := make([]Region, pp)
		for s, r := range perm {
			regions[s] = base[r]
		}
		return &Placement{Regions: regions}
	}
	if pp <= 1 {
		return build(perm), 0, 0, 0, nil
	}
	occupied := m.NewLinkSet()
	curCost := anchorCost(m, anchors, w, occupied)
	bestPerm := append([]int(nil), perm...)
	bestCost := curCost

	seen := map[[3]int]bool{}
	temp := curCost * 0.1
	if temp <= 0 {
		temp = 1
	}
	iters := 200 * pp
	for i := 0; i < iters; i++ {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			continue
		}
		proposals++
		seen[[3]int{min(a, b), max(a, b), accepts}] = true
		anchors[a], anchors[b] = anchors[b], anchors[a]
		c := anchorCost(m, anchors, w, occupied)
		if c <= curCost || rng.Float64() < math.Exp((curCost-c)/math.Max(temp, 1e-12)) {
			accepts++
			perm[a], perm[b] = perm[b], perm[a]
			curCost = c
			if c < bestCost {
				bestCost = c
				copy(bestPerm, perm)
			}
		} else {
			anchors[a], anchors[b] = anchors[b], anchors[a]
		}
		temp *= 0.995
	}
	return build(bestPerm), proposals, len(seen), accepts, nil
}

// Test-only exports for the external test package, which builds its
// instances with internal/benchutil (an importer of this package).
var (
	OptimizeCounted   = optimize
	ReferenceOptimize = referenceOptimize
)

// TestOptimizeMatchesReference pins the memoized annealer to the memo-free
// loop: Optimize must return the same placement and leave the generator at
// the same Int63, with seeds 1–5 on every interned topology and past the
// interning bound (the full-evaluation pricer behind the memo), and on the
// 12×12 pp 128 scale wafer. Every workload has at least eight Mem_pairs,
// so γ couples the pairs' prices.
func TestOptimizeMatchesReference(t *testing.T) {
	for _, tc := range append(internedTopologies(), topology{"mesh13x13", pastBoundMesh(), 7, 24}) {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			for seed := int64(1); seed <= 5; seed++ {
				w := randomWorkload(rng, tc.pp)
				for i := 0; i < 8; i++ {
					w.Pairs = append(w.Pairs, memPair(rng.Intn(tc.pp), rng.Intn(tc.pp), rng.Float64()*3e9))
				}
				checkAgainstReference(t, tc.m, tc.tp, tc.pp, w, seed)
			}
		})
	}
	t.Run("scale12x12-pp128", func(t *testing.T) {
		const pp = 128
		checkAgainstReference(t, scaleMesh(), 1, pp, scaleWorkload(rand.New(rand.NewSource(41)), pp), 1)
	})
}

// checkAgainstReference runs Optimize and referenceOptimize from the same
// seed and fails t unless the placements are deeply equal and the two
// generators draw the same next Int63.
func checkAgainstReference(t *testing.T, m *mesh.Mesh, tp, pp int, w Workload, seed int64) {
	t.Helper()
	gotRNG, wantRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, err := Optimize(m, tp, pp, w, gotRNG)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, _, err := referenceOptimize(m, tp, pp, w, wantRNG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: Optimize placement differs from the memo-free reference", seed)
	}
	if a, b := gotRNG.Int63(), wantRNG.Int63(); a != b {
		t.Fatalf("seed %d: generators diverged after the run: %d vs %d", seed, a, b)
	}
}
