package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/recompute"
)

// batchWorkload builds the randomized cross-check workload of
// TestScorerMatchesFullEval: pipeline volumes with a zero tail edge, plus
// pairs including degenerate and out-of-range entries.
func batchWorkload(rng *rand.Rand, pp int) Workload {
	pipe := make([]float64, pp-1)
	for i := range pipe {
		pipe[i] = rng.Float64() * 4e9
	}
	if len(pipe) > 1 {
		pipe[len(pipe)-1] = 0
	}
	w := Workload{PipelineBytes: pipe}
	npairs := 2 + rng.Intn(6)
	for i := 0; i < npairs; i++ {
		w.Pairs = append(w.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), rng.Float64()*3e9))
	}
	w.Pairs = append(w.Pairs,
		memPair(0, pp, 1e9), // out of range: skipped
		memPair(-1, 0, 1e9), // out of range: skipped
		memPair(1, 1, 1e9),  // degenerate: zero-length path
	)
	return w
}

// crossCheckBatch prices random groups of 1–8 proposals — duplicates and
// overlaps included — from the committed state of a Scorer that a
// ScorerBatch wraps, comparing every price bit for bit with what an
// independent scalar mirror's SwapDelta returns, and commits a random
// proposal of every few groups on both, comparing the batch's Commit with
// the mirror's SwapDelta + Apply. It returns the number of groups priced.
func crossCheckBatch(t *testing.T, m *mesh.Mesh, anchors []mesh.DieID, w Workload, groups int, rng *rand.Rand) int {
	t.Helper()
	pp := len(anchors)
	sc := NewScorer(m, anchors, w)
	ref := NewScorer(m, anchors, w)
	batch := NewScorerBatch(sc)
	cand := make([][2]int, 0, 8)
	for g := 0; g < groups; g++ {
		cand = cand[:0]
		k := 1 + rng.Intn(8)
		for len(cand) < k {
			x, y := rng.Intn(pp), rng.Intn(pp)
			if x == y {
				continue
			}
			cand = append(cand, [2]int{x, y})
		}
		for j, c := range cand {
			got := batch.SwapCost(c[0], c[1])
			want, _ := ref.SwapDelta(c[0], c[1])
			ref.Revert()
			if got != want {
				t.Fatalf("group %d proposal %d (%d,%d): SwapCost = %x, scalar SwapDelta = %x",
					g, j, c[0], c[1], math.Float64bits(got), math.Float64bits(want))
			}
		}
		// Commit a random proposal of every few groups: the new committed
		// state supersedes every earlier price, and the next one must
		// follow it bit-exactly.
		if rng.Intn(3) == 0 {
			c := cand[rng.Intn(k)]
			got := batch.Commit(c[0], c[1])
			want, _ := ref.SwapDelta(c[0], c[1])
			ref.Apply()
			if got != want {
				t.Fatalf("group %d: commit = %x, scalar = %x", g, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	if sc.Cost() != ref.Cost() {
		t.Fatalf("committed cost drifted: %x vs %x", math.Float64bits(sc.Cost()), math.Float64bits(ref.Cost()))
	}
	return groups
}

// TestScorerBatchMatchesSwapDelta is the randomized bit-identity contract
// of the read-only pricer: every price must equal — exact float bits — what
// a sequential SwapDelta returns from the same committed state, on both the
// square and mesh-switch topologies, with commits advancing the state
// between groups of proposals (the lifecycle the annealer relies on). A
// last case on the 12×12 scale wafer carries more than 64 valid pairs, so
// the affected-pair plane spans several words.
func TestScorerBatchMatchesSwapDelta(t *testing.T) {
	totalGroups := 0
	for _, tc := range internedTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			anchors := partitionAnchors(t, tc.m, tc.tp, tc.pp)
			for trial := 0; trial < 3; trial++ {
				totalGroups += crossCheckBatch(t, tc.m, anchors, batchWorkload(rng, tc.pp), 150, rng)
			}
		})
	}
	if totalGroups < 1000 {
		t.Fatalf("cross-check covered %d groups, want ≥1000", totalGroups)
	}
	t.Run("scale12x12-pp128", func(t *testing.T) {
		w := hw.Config3()
		w.DiesX, w.DiesY = 12, 12
		m := mesh.New(w)
		const pp = 128
		rng := rand.New(rand.NewSource(77))
		anchors := partitionAnchors(t, m, 1, pp)
		wl := batchWorkload(rng, pp)
		for i := 0; i < 70; i++ {
			wl.Pairs = append(wl.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), rng.Float64()*3e9))
		}
		crossCheckBatch(t, m, anchors, wl, 100, rng)
	})
}

// partitionAnchors returns the anchors of the serpentine partition of m
// into pp regions of tp dies.
func partitionAnchors(t *testing.T, m *mesh.Mesh, tp, pp int) []mesh.DieID {
	t.Helper()
	base, err := Partition(m, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]mesh.DieID, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	return anchors
}

// TestScorerBatchAfterReset pins the resync: re-targeting the underlying
// Scorer at a new assignment and workload (Reset) must resync the pricer,
// with prices again bit-identical to SwapDelta.
func TestScorerBatchAfterReset(t *testing.T) {
	m := scorerTopologies()[0].m
	rng := rand.New(rand.NewSource(5))
	sc := NewScorer(m, nil, Workload{})
	batch := NewScorerBatch(sc)
	for trial := 0; trial < 40; trial++ {
		pp := 2 + rng.Intn(12)
		tp := 1 + rng.Intn(56/pp)
		base, err := Partition(m, tp, pp)
		if err != nil {
			t.Fatal(err)
		}
		anchors := make([]mesh.DieID, pp)
		perm := rng.Perm(pp)
		for i := range anchors {
			anchors[i] = base[perm[i]].Anchor()
		}
		w := batchWorkload(rng, pp)
		sc.Reset(anchors, w)
		ref := NewScorer(m, anchors, w)
		for j := 0; j < 4; {
			x, y := rng.Intn(pp), rng.Intn(pp)
			if x == y {
				continue
			}
			got := batch.SwapCost(x, y)
			want, _ := ref.SwapDelta(x, y)
			ref.Revert()
			if got != want {
				t.Fatalf("trial %d proposal %d: SwapCost = %x, scalar = %x",
					trial, j, math.Float64bits(got), math.Float64bits(want))
			}
			j++
		}
	}
}

// TestScorerBatchDiscipline pins the protocol guards and NewScorerBatch's
// precondition.
func TestScorerBatchDiscipline(t *testing.T) {
	tc := scorerTopologies()[0]
	anchors := partitionAnchors(t, tc.m, tc.tp, tc.pp)
	sc := NewScorer(tc.m, anchors, fig11Workload())
	batch := NewScorerBatch(sc)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("degenerate price", func() { batch.SwapCost(3, 3) })
	mustPanic("degenerate commit", func() { batch.Commit(3, 3) })
	sc.SwapDelta(0, 1)
	mustPanic("price with pending scalar swap", func() { batch.SwapCost(2, 3) })
	mustPanic("commit with pending scalar swap", func() { batch.Commit(2, 3) })
	sc.Revert()
	// The pricer reads interned route masks: it refuses a mesh past the
	// interning bound and anchors off the mesh.
	mustPanic("mesh past the interning bound", func() { NewScorerBatch(NewScorer(pastBoundMesh(), anchors[:4], Workload{})) })
	mustPanic("anchor off the mesh", func() { NewScorerBatch(NewScorer(tc.m, []mesh.DieID{{X: -1, Y: 0}}, Workload{})) })
}

// TestOptimizeSpeculativeMatchesScalar pins the read-only annealer's
// trajectory: across seeds and topologies the returned placement must be
// identical to the scalar SwapDelta/Revert loop's, and the two must consume
// exactly the same draws from the generator.
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
				scalarRNG, priceRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				scalar, err := optimize(tc.m, tc.tp, tc.pp, w, scalarRNG, false)
				if err != nil {
					t.Fatal(err)
				}
				priced, err := optimize(tc.m, tc.tp, tc.pp, w, priceRNG, true)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(scalar, priced) {
					t.Fatalf("seed %d: read-only placement differs from the scalar loop's", seed)
				}
				if a, b := scalarRNG.Int63(), priceRNG.Int63(); a != b {
					t.Fatalf("seed %d: generators diverged after the run: %d vs %d", seed, a, b)
				}
			}
		})
	}
}

// TestScorerBatchZeroAlloc asserts the price/commit cycle performs no
// steady-state allocations on an interned mesh.
func TestScorerBatchZeroAlloc(t *testing.T) {
	tc := scorerTopologies()[0]
	sc := NewScorer(tc.m, partitionAnchors(t, tc.m, tc.tp, tc.pp), fig11Workload())
	batch := NewScorerBatch(sc)
	rng := rand.New(rand.NewSource(11))
	cycle := func() {
		x, y := rng.Intn(tc.pp), rng.Intn(tc.pp)
		if x == y {
			return
		}
		batch.SwapCost(x, y)
		// Commit on a 1-in-4 coin: following a commit must also be
		// allocation-free.
		if rng.Intn(4) == 0 {
			batch.Commit(x, y)
		}
	}
	// Warm the shared inverted index and the pricer's planes to steady
	// state.
	for i := 0; i < 2000; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(4000, cycle); allocs != 0 {
		t.Fatalf("price/commit cycle allocates %.1f objects/op, want 0", allocs)
	}
}
