package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/recompute"
)

// TestSpecRandMatchesMathRand pins the rewindable RNG view against
// math/rand itself: every derivation (Intn across power-of-two and
// rejection-loop moduli, Float64) must return the same values in the same
// stream positions, including after mis-speculation rewinds where buffered
// raw draws are reinterpreted under a different call sequence.
func TestSpecRandMatchesMathRand(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		ref := rand.New(rand.NewSource(seed))
		sr := newSpecRand(rand.New(rand.NewSource(seed)))
		pat := rand.New(rand.NewSource(seed * 997))
		for i := 0; i < 4000; i++ {
			switch pat.Intn(4) {
			case 0:
				n := 1 + pat.Intn(200)
				if got, want := sr.intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d step %d: intn(%d) = %d, want %d", seed, i, n, got, want)
				}
			case 1:
				if got, want := sr.float64(), ref.Float64(); got != want {
					t.Fatalf("seed %d step %d: float64 = %x, want %x", seed, i, got, want)
				}
			case 2:
				// Mis-speculation: draw a threshold ahead, rewind it, and
				// reinterpret the same raw values as the next proposal —
				// the reference never draws the threshold at all.
				m := sr.mark()
				sr.float64()
				sr.rewind(m)
				n := 2 + pat.Intn(100)
				if got, want := sr.intn(n), ref.Intn(n); got != want {
					t.Fatalf("seed %d step %d: post-rewind intn(%d) = %d, want %d", seed, i, n, got, want)
				}
			case 3:
				sr.compact()
			}
		}
	}
}

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

// TestScorerBatchMatchesSwapDelta is the randomized bit-identity contract
// of the batch evaluator: every candidate cost must equal — exact float
// bits — what a sequential SwapDelta returns from the same committed state,
// on both the square and mesh-switch topologies, with overlapping
// candidates in every batch and commits advancing the state between
// batches (the invalidation lifecycle the speculative annealer relies on).
func TestScorerBatchMatchesSwapDelta(t *testing.T) {
	totalBatches := 0
	for _, tc := range internedTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			base, err := Partition(tc.m, tc.tp, tc.pp)
			if err != nil {
				t.Fatal(err)
			}
			anchors := make([]mesh.DieID, tc.pp)
			for i := range base {
				anchors[i] = base[i].Anchor()
			}
			for trial := 0; trial < 3; trial++ {
				w := batchWorkload(rng, tc.pp)
				// sc carries the committed state the batch evaluates
				// against; ref is an independent scalar mirror.
				sc := NewScorer(tc.m, anchors, w)
				ref := NewScorer(tc.m, anchors, w)
				batch := NewScorerBatch(sc, 8)
				cand := make([][2]int, 0, 8)
				for b := 0; b < 150; b++ {
					batch.Reset()
					cand = cand[:0]
					k := 1 + rng.Intn(8)
					for len(cand) < k {
						x, y := rng.Intn(tc.pp), rng.Intn(tc.pp)
						if x == y {
							continue
						}
						// Duplicate and overlapping candidates are allowed
						// and must still evaluate independently.
						batch.Propose(x, y)
						cand = append(cand, [2]int{x, y})
					}
					costs := batch.Evaluate()
					for j, c := range cand {
						want, _ := ref.SwapDelta(c[0], c[1])
						ref.Revert()
						if costs[j] != want {
							t.Fatalf("trial %d batch %d cand %d (%d,%d): batch = %x, scalar SwapDelta = %x",
								trial, b, j, c[0], c[1], math.Float64bits(costs[j]), math.Float64bits(want))
						}
					}
					totalBatches++
					// Commit a random candidate every few batches: the new
					// committed state supersedes every earlier evaluation,
					// and the next batch must re-sync bit-exactly.
					if rng.Intn(3) == 0 {
						j := rng.Intn(k)
						got := batch.Commit(j)
						want, _ := ref.SwapDelta(cand[j][0], cand[j][1])
						ref.Apply()
						if got != want {
							t.Fatalf("trial %d batch %d: commit = %x, scalar = %x",
								trial, b, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
				if sc.Cost() != ref.Cost() {
					t.Fatalf("trial %d: committed cost drifted: %x vs %x",
						trial, math.Float64bits(sc.Cost()), math.Float64bits(ref.Cost()))
				}
			}
		})
	}
	if totalBatches < 1000 {
		t.Fatalf("cross-check covered %d batches, want ≥1000", totalBatches)
	}
}

// TestScorerBatchAfterReset pins the base re-sync: re-targeting the
// underlying Scorer at a new assignment and workload (Reset) must re-sync
// the batch base, with candidate costs again bit-identical to SwapDelta.
func TestScorerBatchAfterReset(t *testing.T) {
	m := scorerTopologies()[0].m
	rng := rand.New(rand.NewSource(5))
	sc := NewScorer(m, nil, Workload{})
	batch := NewScorerBatch(sc, 4)
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
		batch.Reset()
		cand := make([][2]int, 0, 4)
		for len(cand) < 4 {
			x, y := rng.Intn(pp), rng.Intn(pp)
			if x == y {
				continue
			}
			batch.Propose(x, y)
			cand = append(cand, [2]int{x, y})
		}
		costs := batch.Evaluate()
		for j, c := range cand {
			want, _ := ref.SwapDelta(c[0], c[1])
			ref.Revert()
			if costs[j] != want {
				t.Fatalf("trial %d cand %d: batch = %x, scalar = %x",
					trial, j, math.Float64bits(costs[j]), math.Float64bits(want))
			}
		}
	}
}

// TestScorerBatchDiscipline pins the protocol guards and NewScorerBatch's
// precondition.
func TestScorerBatchDiscipline(t *testing.T) {
	tc := scorerTopologies()[0]
	base, _ := Partition(tc.m, tc.tp, tc.pp)
	anchors := make([]mesh.DieID, tc.pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	sc := NewScorer(tc.m, anchors, fig11Workload())
	batch := NewScorerBatch(sc, 2)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("degenerate propose", func() { batch.Propose(3, 3) })
	batch.Propose(0, 1)
	batch.Propose(2, 3)
	mustPanic("propose beyond capacity", func() { batch.Propose(4, 5) })
	mustPanic("commit out of range", func() { batch.Commit(2) })
	sc.SwapDelta(0, 1)
	mustPanic("propose with pending scalar swap", func() { batch.Reset(); batch.Propose(0, 1) })
	mustPanic("evaluate with pending scalar swap", func() { batch.Evaluate() })
	sc.Revert()
	// The batch reads interned route masks: it refuses a mesh past the
	// interning bound and anchors off the mesh.
	mustPanic("mesh past the interning bound", func() { NewScorerBatch(NewScorer(pastBoundMesh(), anchors[:4], Workload{}), 2) })
	mustPanic("anchor off the mesh", func() { NewScorerBatch(NewScorer(tc.m, []mesh.DieID{{X: -1, Y: 0}}, Workload{}), 2) })
}

// TestOptimizeSpeculativeMatchesScalar pins the speculative annealer's
// trajectory: for every window size the returned placement must be
// identical to the scalar loop's, across seeds and topologies — the
// rewindable RNG and the bit-identical batch costs together reproduce
// every proposal and Metropolis decision exactly.
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
				scalar, err := OptimizeWindow(tc.m, tc.tp, tc.pp, w, rand.New(rand.NewSource(seed)), 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, win := range []int{2, 3, 8, 32} {
					spec, err := OptimizeWindow(tc.m, tc.tp, tc.pp, w, rand.New(rand.NewSource(seed)), win)
					if err != nil {
						t.Fatal(err)
					}
					for s := range scalar.Regions {
						if len(scalar.Regions[s].Dies) != len(spec.Regions[s].Dies) {
							t.Fatalf("seed %d window %d: stage %d region size differs", seed, win, s)
						}
						for i := range scalar.Regions[s].Dies {
							if scalar.Regions[s].Dies[i] != spec.Regions[s].Dies[i] {
								t.Fatalf("seed %d window %d: stage %d die %d differs: %v vs %v",
									seed, win, s, i, scalar.Regions[s].Dies[i], spec.Regions[s].Dies[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestScorerBatchZeroAlloc asserts the batch propose/evaluate/commit cycle
// performs no steady-state allocations on an interned mesh.
func TestScorerBatchZeroAlloc(t *testing.T) {
	tc := scorerTopologies()[0]
	base, err := Partition(tc.m, tc.tp, tc.pp)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]mesh.DieID, tc.pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	sc := NewScorer(tc.m, anchors, fig11Workload())
	batch := NewScorerBatch(sc, 8)
	rng := rand.New(rand.NewSource(11))
	cycle := func() {
		batch.Reset()
		for batch.Len() < batch.Cap() {
			x, y := rng.Intn(tc.pp), rng.Intn(tc.pp)
			if x == y {
				continue
			}
			batch.Propose(x, y)
		}
		batch.Evaluate()
		// Commit one candidate every few cycles: the base re-sync after a
		// commit must also be allocation-free.
		if rng.Intn(4) == 0 {
			batch.Commit(rng.Intn(batch.Cap()))
		}
	}
	// Warm the shared inverted index and the batch planes to steady state.
	for i := 0; i < 500; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("batch propose/evaluate/commit cycle allocates %.1f objects/op, want 0", allocs)
	}
}
