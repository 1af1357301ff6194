package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/recompute"
)

func m3() *mesh.Mesh { return mesh.New(hw.Config3()) }

func TestPartitionCoversDisjoint(t *testing.T) {
	m := m3()
	regions, err := Partition(m, 7, 8) // all 56 dies
	if err != nil {
		t.Fatal(err)
	}
	seen := map[mesh.DieID]bool{}
	for s, r := range regions {
		if len(r.Dies) != 7 {
			t.Fatalf("region %d has %d dies, want 7", s, len(r.Dies))
		}
		for _, d := range r.Dies {
			if seen[d] {
				t.Fatalf("die %v assigned twice", d)
			}
			seen[d] = true
		}
	}
	if len(seen) != 56 {
		t.Fatalf("covered %d dies, want 56", len(seen))
	}
}

func TestPartitionRejectsOversubscription(t *testing.T) {
	if _, err := Partition(m3(), 8, 8); err == nil {
		t.Error("64 dies on a 56-die mesh should fail")
	}
	if _, err := Partition(m3(), 0, 4); err == nil {
		t.Error("tp=0 should fail")
	}
}

func TestRegionContiguity(t *testing.T) {
	// Serpentine regions of width tp are contiguous strips: consecutive
	// dies are mesh-adjacent.
	m := m3()
	regions, _ := Partition(m, 7, 8)
	for s, r := range regions {
		for i := 1; i < len(r.Dies); i++ {
			if m.Hops(r.Dies[i-1], r.Dies[i]) != 1 {
				t.Fatalf("region %d not contiguous at %d: %v -> %v", s, i, r.Dies[i-1], r.Dies[i])
			}
		}
	}
}

func TestAnchorInsideRegion(t *testing.T) {
	m := m3()
	regions, _ := Partition(m, 4, 8)
	for _, r := range regions {
		a := r.Anchor()
		found := false
		for _, d := range r.Dies {
			if d == a {
				found = true
			}
		}
		if !found {
			t.Fatalf("anchor %v not in region %v", a, r.Dies)
		}
	}
}

// fig11Workload reproduces the Fig 11 setting: an 8-stage pipeline with
// Mem_pairs (S1,S8) and (S2,S7) — 0-indexed (0,7) and (1,6).
func fig11Workload() Workload {
	pipe := make([]float64, 8)
	for i := range pipe {
		pipe[i] = 1e9
	}
	return Workload{
		PipelineBytes: pipe,
		Pairs: []recompute.MemPair{
			{Sender: 0, Helper: 7, Bytes: 2e9},
			{Sender: 1, Helper: 6, Bytes: 2e9},
		},
	}
}

func TestOptimizeBeatsSerpentine(t *testing.T) {
	// Fig 11: location-aware placement should cut GlobalCost versus the
	// serpentine baseline when Mem_pairs join distant stages.
	m := m3()
	w := fig11Workload()
	serp, err := Serpentine(m, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(m, 7, 8, w, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	cs := GlobalCost(m, serp, w)
	co := GlobalCost(m, opt, w)
	if co > cs {
		t.Errorf("optimized cost %g should not exceed serpentine %g", co, cs)
	}
	if co >= cs*0.95 {
		t.Logf("warning: optimization gain small: %g vs %g", co, cs)
	}
}

func TestOptimizeReducesTotalHops(t *testing.T) {
	// §IV-C-1 reports ~30% total-hop reduction; require any reduction.
	m := m3()
	w := fig11Workload()
	serp, _ := Serpentine(m, 7, 8)
	opt, _ := Optimize(m, 7, 8, w, rand.New(rand.NewSource(11)))
	hs := TotalHops(m, serp, w.Pairs)
	ho := TotalHops(m, opt, w.Pairs)
	if ho > hs {
		t.Errorf("optimized hops %d exceed serpentine %d", ho, hs)
	}
}

func TestGlobalCostConflictPunishment(t *testing.T) {
	// A pair whose only route overlaps pipeline links must cost more than
	// the same distance without conflicts.
	m := m3()
	p, _ := Serpentine(m, 7, 2)
	base := Workload{PipelineBytes: []float64{1e9, 1e9}}
	noPairs := GlobalCost(m, p, base)
	withPair := base
	withPair.Pairs = []recompute.MemPair{{Sender: 0, Helper: 1, Bytes: 1e9}}
	cost := GlobalCost(m, p, withPair)
	if cost <= noPairs {
		t.Error("adding a balance pair should add cost")
	}
}

func TestGlobalCostIgnoresInvalidPairs(t *testing.T) {
	m := m3()
	p, _ := Serpentine(m, 7, 2)
	w := Workload{Pairs: []recompute.MemPair{{Sender: 5, Helper: 9, Bytes: 1e9}}}
	if got := GlobalCost(m, p, w); got != 0 {
		t.Errorf("out-of-range pairs should be ignored, cost = %g", got)
	}
}

func TestTotalHopsIgnoresInvalidPairs(t *testing.T) {
	m := m3()
	p, _ := Serpentine(m, 7, 2)
	want := TotalHops(m, p, nil)
	for _, pr := range []recompute.MemPair{
		{Sender: 5, Helper: 9, Bytes: 1e9},
		{Sender: -1, Helper: 0, Bytes: 1e9},
		{Sender: 0, Helper: -1, Bytes: 1e9},
	} {
		if got := TotalHops(m, p, []recompute.MemPair{pr}); got != want {
			t.Errorf("pair %+v should be ignored: hops = %d, want %d", pr, got, want)
		}
	}
}

// TestOptimizePastInterningBound pins the annealer on a mesh past the
// route-interning bound, where no Scorer can run: Optimize must return
// exactly the full-evaluation loop's placement and never cost more than
// serpentine.
func TestOptimizePastInterningBound(t *testing.T) {
	m := pastBoundMesh()
	const tp, pp = 7, 24
	pipe := make([]float64, pp)
	for i := range pipe {
		pipe[i] = 1e9
	}
	w := Workload{
		PipelineBytes: pipe,
		Pairs: []recompute.MemPair{
			memPair(0, pp-1, 2e9),
			memPair(1, pp-2, 2e9),
			memPair(3, 12, 1e9),
		},
	}
	serp, err := Serpentine(m, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		opt, err := Optimize(m, tp, pp, w, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := optimize(m, tp, pp, w, rand.New(rand.NewSource(seed)), false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, full) {
			t.Fatalf("seed %d: Optimize differs from the full-evaluation loop", seed)
		}
		if co, cs := GlobalCost(m, opt, w), GlobalCost(m, serp, w); co > cs {
			t.Errorf("seed %d: optimized cost %g exceeds serpentine %g", seed, co, cs)
		}
	}
}

func TestOptimizePreservesRegionGeometry(t *testing.T) {
	m := m3()
	opt, err := Optimize(m, 7, 8, fig11Workload(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[mesh.DieID]bool{}
	for _, r := range opt.Regions {
		if len(r.Dies) != 7 {
			t.Fatalf("region size changed: %d", len(r.Dies))
		}
		for _, d := range r.Dies {
			if seen[d] {
				t.Fatal("die assigned twice after optimization")
			}
			seen[d] = true
		}
	}
}

func TestOptimizeNeverWorseProperty(t *testing.T) {
	m := m3()
	f := func(seed int64, pairSel uint8) bool {
		w := fig11Workload()
		w.Pairs[0].Helper = int(pairSel%6) + 2
		serp, err1 := Serpentine(m, 7, 8)
		opt, err2 := Optimize(m, 7, 8, w, rand.New(rand.NewSource(seed)))
		if err1 != nil || err2 != nil {
			return false
		}
		return GlobalCost(m, opt, w) <= GlobalCost(m, serp, w)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeDeterministic pins the annealer: the same seed yields the same
// placement, on the square and mesh-switch meshes and past the interning
// bound.
func TestOptimizeDeterministic(t *testing.T) {
	for _, tc := range append(internedTopologies(), topology{"mesh13x13", pastBoundMesh(), 7, 24}) {
		t.Run(tc.name, func(t *testing.T) {
			pipe := make([]float64, tc.pp)
			for i := range pipe {
				pipe[i] = 1e9
			}
			w := Workload{
				PipelineBytes: pipe,
				Pairs: []recompute.MemPair{
					memPair(0, tc.pp-1, 2e9),
					memPair(1, tc.pp-2, 2e9),
				},
			}
			a, err := Optimize(tc.m, tc.tp, tc.pp, w, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Optimize(tc.m, tc.tp, tc.pp, w, rand.New(rand.NewSource(21)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed, different placements")
			}
		})
	}
}

// TestOptimizeSpeculativeMatchesScalar pins the priced annealer's
// trajectory: across seeds and topologies the placement the Scorer loop
// returns must be identical to the full-evaluation loop's, and the two must
// consume exactly the same draws from the generator.
func TestOptimizeSpeculativeMatchesScalar(t *testing.T) {
	for _, tc := range internedTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			pipe := make([]float64, tc.pp)
			for i := range pipe {
				pipe[i] = 1e9
			}
			w := Workload{
				PipelineBytes: pipe,
				Pairs: []recompute.MemPair{
					memPair(0, tc.pp-1, 2e9),
					memPair(1, tc.pp-2, 2e9),
					memPair(2, 2, 5e8),
				},
			}
			for seed := int64(1); seed <= 5; seed++ {
				fullRNG, priceRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				full, _, err := optimize(tc.m, tc.tp, tc.pp, w, fullRNG, false)
				if err != nil {
					t.Fatal(err)
				}
				priced, _, err := optimize(tc.m, tc.tp, tc.pp, w, priceRNG, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(full, priced) {
					t.Fatalf("seed %d: priced placement differs from the full-evaluation loop's", seed)
				}
				if a, b := fullRNG.Int63(), priceRNG.Int63(); a != b {
					t.Fatalf("seed %d: generators diverged after the run: %d vs %d", seed, a, b)
				}
			}
		})
	}
}

// TestAnchorEmptyRegion guards the empty-region edge case: Anchor must
// return the zero die instead of panicking on r.Dies[0].
func TestAnchorEmptyRegion(t *testing.T) {
	var r Region
	if got := r.Anchor(); got != (mesh.DieID{}) {
		t.Fatalf("empty region anchor = %v, want zero die", got)
	}
}
