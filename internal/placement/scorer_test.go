package placement

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/recompute"
)

func memPair(sender, helper int, bytes float64) recompute.MemPair {
	return recompute.MemPair{Sender: sender, Helper: helper, Bytes: bytes}
}

// pipelineOcc rebuilds the boolean pipeline-path occupancy of an anchor
// table from scratch — the reference for the dirty-mask cross-check.
func pipelineOcc(m *mesh.Mesh, anchors []mesh.DieID) *mesh.LinkSet {
	occ := m.NewLinkSet()
	for s := 0; s+1 < len(anchors); s++ {
		for _, id := range m.XYPathIDs(anchors[s], anchors[s+1]) {
			occ.Add(int(id))
		}
	}
	return occ
}

// topology is one cross-check substrate: a mesh partitioned into pp
// regions of tp dies.
type topology struct {
	name   string
	m      *mesh.Mesh
	tp, pp int
}

// scorerTopologies are the cross-check substrates: the interned meshes of
// internedTopologies plus a 13×13 wafer past the mesh package's
// route-interning bound, whose routes are built per call.
func scorerTopologies() []topology {
	return append(internedTopologies(), topology{"mesh13x13", pastBoundMesh(), 7, 24})
}

// internedTopologies are the square Config3 2D mesh and the §VI-E
// mesh-switch reconfiguration, whose routes are interned — the only meshes
// a ScorerBatch accepts.
func internedTopologies() []topology {
	return []topology{
		{"mesh2d", mesh.New(hw.Config3()), 7, 8},
		{"mesh2d-pp14", mesh.New(hw.Config3()), 4, 14},
		{"meshswitch", mesh.New(hw.Config3MeshSwitch()), 4, 12},
	}
}

// pastBoundMesh is a 13×13 wafer of Config3 dies: 169 dies, past the
// 160-die route-interning bound.
func pastBoundMesh() *mesh.Mesh {
	w := hw.Config3()
	w.DiesX, w.DiesY = 13, 13
	return mesh.New(w)
}

// TestScorerMatchesFullEval is the randomized bit-identity cross-check of
// the incremental Eq 2 engine: over thousands of random swaps (accepted and
// reverted) on two topologies, the Scorer's cost must equal the full
// evaluation of the same anchor table exactly — same float bits, not just
// within epsilon — because the annealer's acceptance decisions (and the
// sched golden SHA) depend on exact values.
func TestScorerMatchesFullEval(t *testing.T) {
	for _, tc := range scorerTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			base, err := Partition(tc.m, tc.tp, tc.pp)
			if err != nil {
				t.Fatal(err)
			}
			anchors := make([]mesh.DieID, tc.pp)
			for i := range base {
				anchors[i] = base[i].Anchor()
			}
			occupied := tc.m.NewLinkSet()
			for trial := 0; trial < 3; trial++ {
				// Random workload: pipeline volumes (with a zero-volume
				// tail edge) and pairs including a degenerate and an
				// out-of-range entry.
				pipe := make([]float64, tc.pp-1)
				for i := range pipe {
					pipe[i] = rng.Float64() * 4e9
				}
				if len(pipe) > 1 {
					pipe[len(pipe)-1] = 0
				}
				w := Workload{PipelineBytes: pipe}
				npairs := 2 + rng.Intn(6)
				for i := 0; i < npairs; i++ {
					w.Pairs = append(w.Pairs, memPair(rng.Intn(tc.pp), rng.Intn(tc.pp), rng.Float64()*3e9))
				}
				w.Pairs = append(w.Pairs,
					memPair(0, tc.pp, 1e9), // out of range: skipped
					memPair(-1, 0, 1e9),    // out of range: skipped
					memPair(1, 1, 1e9),     // degenerate: zero-length path
				)

				ref := append([]mesh.DieID(nil), anchors...)
				sc := NewScorer(tc.m, ref, w)
				if got, want := sc.Cost(), EvalAnchors(tc.m, ref, w, occupied); got != want {
					t.Fatalf("initial cost = %x, full eval = %x", got, want)
				}
				swaps := 0
				for swaps < 1100 {
					a, b := rng.Intn(tc.pp), rng.Intn(tc.pp)
					if a == b {
						continue
					}
					swaps++
					prev := sc.Cost()
					occBefore := pipelineOcc(tc.m, ref)
					newCost, delta := sc.SwapDelta(a, b)
					ref[a], ref[b] = ref[b], ref[a]
					if want := EvalAnchors(tc.m, ref, w, occupied); newCost != want {
						t.Fatalf("swap %d (%d,%d): scorer = %x, full eval = %x", swaps, a, b, newCost, want)
					}
					if delta != newCost-prev {
						t.Fatalf("swap %d: delta = %g, want %g", swaps, delta, newCost-prev)
					}
					// Dirty-mask cross-check: every link whose boolean
					// occupancy differs across the swap must be recorded
					// (the mask may conservatively include links that
					// flipped twice and self-cancelled).
					occAfter := pipelineOcc(tc.m, ref)
					dirty := sc.DirtyLinks()
					for id := 0; id < tc.m.NumLinks(); id++ {
						if occBefore.Has(id) != occAfter.Has(id) && !dirty.Has(id) {
							t.Fatalf("swap %d: link %d flipped occupancy but is not in the dirty mask", swaps, id)
						}
					}
					if rng.Intn(2) == 0 {
						sc.Apply()
					} else {
						sc.Revert()
						ref[a], ref[b] = ref[b], ref[a]
						if got, want := sc.Cost(), prev; got != want {
							t.Fatalf("swap %d: revert cost = %x, want %x", swaps, got, want)
						}
						if want := EvalAnchors(tc.m, ref, w, occupied); sc.Cost() != want {
							t.Fatalf("swap %d: reverted scorer = %x, full eval = %x", swaps, sc.Cost(), want)
						}
					}
				}
			}
		})
	}
}

// TestScorerResetReuse pins the GA scratch path: re-targeting one Scorer at
// a different assignment and workload must match a fresh full evaluation.
func TestScorerResetReuse(t *testing.T) {
	m := mesh.New(hw.Config3())
	rng := rand.New(rand.NewSource(9))
	occupied := m.NewLinkSet()
	sc := NewScorer(m, nil, Workload{})
	if sc.Cost() != 0 {
		t.Fatalf("empty scorer cost = %g", sc.Cost())
	}
	for trial := 0; trial < 50; trial++ {
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
		pipe := make([]float64, pp-1)
		for i := range pipe {
			pipe[i] = rng.Float64() * 1e9
		}
		w := Workload{PipelineBytes: pipe}
		for i := 0; i < rng.Intn(8); i++ {
			w.Pairs = append(w.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), rng.Float64()*1e9))
		}
		sc.Reset(anchors, w)
		if got, want := sc.Cost(), EvalAnchors(m, anchors, w, occupied); got != want {
			t.Fatalf("trial %d: reset cost = %x, full eval = %x", trial, got, want)
		}
	}
}

// TestScorerSwapZeroAlloc asserts the annealer inner loop — SwapDelta plus
// Apply or Revert — performs no allocations on an interned mesh.
func TestScorerSwapZeroAlloc(t *testing.T) {
	m := mesh.New(hw.Config3())
	pp := 8
	base, err := Partition(m, 7, pp)
	if err != nil {
		t.Fatal(err)
	}
	anchors := make([]mesh.DieID, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	w := fig11Workload()
	sc := NewScorer(m, anchors, w)
	rng := rand.New(rand.NewSource(3))
	// Warm the inverted link index to its steady-state capacities: the
	// per-link candidate lists grow during the first sweeps and then stay
	// allocation-free.
	for i := 0; i < 2000; i++ {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			continue
		}
		sc.SwapDelta(a, b)
		if rng.Intn(2) == 0 {
			sc.Apply()
		} else {
			sc.Revert()
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			return
		}
		sc.SwapDelta(a, b)
		if rng.Intn(2) == 0 {
			sc.Apply()
		} else {
			sc.Revert()
		}
	})
	if allocs != 0 {
		t.Fatalf("annealer inner loop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScorerPendingDiscipline pins the Apply/Revert protocol.
func TestScorerPendingDiscipline(t *testing.T) {
	m := mesh.New(hw.Config3())
	base, _ := Partition(m, 7, 8)
	anchors := make([]mesh.DieID, 8)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	sc := NewScorer(m, anchors, fig11Workload())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("Apply without pending", sc.Apply)
	mustPanic("Revert without pending", sc.Revert)
	sc.SwapDelta(0, 3)
	mustPanic("SwapDelta while pending", func() { sc.SwapDelta(1, 2) })
	sc.Revert()
}

// TestOptimizeDeterministic pins the annealer under the Scorer: the same
// seed yields the same placement, on both the square and mesh-switch
// meshes.
func TestOptimizeDeterministic(t *testing.T) {
	for _, tc := range scorerTopologies() {
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
			for s := range a.Regions {
				if len(a.Regions[s].Dies) != len(b.Regions[s].Dies) {
					t.Fatalf("stage %d region size differs across runs", s)
				}
				for i := range a.Regions[s].Dies {
					if a.Regions[s].Dies[i] != b.Regions[s].Dies[i] {
						t.Fatalf("stage %d die %d differs: %v vs %v", s, i, a.Regions[s].Dies[i], b.Regions[s].Dies[i])
					}
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
