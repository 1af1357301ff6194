package placement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/recompute"
)

func memPair(sender, helper int, bytes float64) recompute.MemPair {
	return recompute.MemPair{Sender: sender, Helper: helper, Bytes: bytes}
}

// topology is one cross-check substrate: a mesh partitioned into pp
// regions of tp dies.
type topology struct {
	name   string
	m      *mesh.Mesh
	tp, pp int
}

// internedTopologies are the square Config3 2D mesh and the §VI-E
// mesh-switch reconfiguration, whose routes are interned — the only meshes
// a Scorer accepts.
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

// scaleMesh is the 12×12 scale wafer: 144 dies, 528 links — within the
// interning bound, with room for pp = 128 single-die stages.
func scaleMesh() *mesh.Mesh {
	w := hw.Config3()
	w.DiesX, w.DiesY = 12, 12
	return mesh.New(w)
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

// randomWorkload builds a randomized cross-check workload: pipeline volumes
// with a zero tail edge, plus pairs including degenerate and out-of-range
// entries.
func randomWorkload(rng *rand.Rand, pp int) Workload {
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

// scaleWorkload is randomWorkload on the 12×12 scale wafer's pp = 128
// partition with 70 more pairs, so more than 64 are valid and the
// affected-pair plane spans several words.
func scaleWorkload(rng *rand.Rand, pp int) Workload {
	w := randomWorkload(rng, pp)
	for i := 0; i < 70; i++ {
		w.Pairs = append(w.Pairs, memPair(rng.Intn(pp), rng.Intn(pp), rng.Float64()*3e9))
	}
	return w
}

// drawGroup refills cand with 1–8 random swaps of distinct stages among
// pp, duplicates and overlaps included.
func drawGroup(rng *rand.Rand, pp int, cand [][2]int) [][2]int {
	cand = cand[:0]
	k := 1 + rng.Intn(8)
	for len(cand) < k {
		x, y := rng.Intn(pp), rng.Intn(pp)
		if x == y {
			continue
		}
		cand = append(cand, [2]int{x, y})
	}
	return cand
}

// crossCheckFunc checks groups of proposals on the Scorer of one anchor
// table and workload and returns the number of groups it checked.
type crossCheckFunc func(t *testing.T, m *mesh.Mesh, anchors []mesh.DieID, w Workload, groups int, rng *rand.Rand) int

// crossCheckAll runs check with seed 77 on three random workloads of 150
// groups on each interned topology, requiring at least 1,000 groups when
// -run filtered out none of them, and on one workload of 100 groups on the
// 12×12 scale wafer's pp = 128 partition, whose more than 64 valid pairs
// make the affected-pair plane span several words.
func crossCheckAll(t *testing.T, check crossCheckFunc) {
	topologies := internedTopologies()
	ran, totalGroups := 0, 0
	for _, tc := range topologies {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			rng := rand.New(rand.NewSource(77))
			anchors := partitionAnchors(t, tc.m, tc.tp, tc.pp)
			for trial := 0; trial < 3; trial++ {
				totalGroups += check(t, tc.m, anchors, randomWorkload(rng, tc.pp), 150, rng)
			}
		})
	}
	if ran == len(topologies) && totalGroups < 1000 {
		t.Fatalf("cross-check covered %d groups, want ≥1000", totalGroups)
	}
	t.Run("scale12x12-pp128", func(t *testing.T) {
		m := scaleMesh()
		const pp = 128
		rng := rand.New(rand.NewSource(77))
		check(t, m, partitionAnchors(t, m, 1, pp), scaleWorkload(rng, pp), 100, rng)
	})
}

// crossCheck prices random groups of proposals from a Scorer's committed
// state, comparing every price bit for bit with a full evaluation of the
// swapped anchor table, and commits a random proposal of every few groups,
// comparing Commit and the committed Cost the same way.
func crossCheck(t *testing.T, m *mesh.Mesh, anchors []mesh.DieID, w Workload, groups int, rng *rand.Rand) int {
	t.Helper()
	pp := len(anchors)
	ref := append([]mesh.DieID(nil), anchors...)
	occupied := m.NewLinkSet()
	sc := NewScorer(m, ref, w)
	if got, want := sc.Cost(), EvalAnchors(m, ref, w, occupied); got != want {
		t.Fatalf("initial cost = %x, full eval = %x", math.Float64bits(got), math.Float64bits(want))
	}
	var cand [][2]int
	for g := 0; g < groups; g++ {
		cand = drawGroup(rng, pp, cand)
		for j, c := range cand {
			got := sc.SwapCost(c[0], c[1])
			ref[c[0]], ref[c[1]] = ref[c[1]], ref[c[0]]
			want := EvalAnchors(m, ref, w, occupied)
			ref[c[0]], ref[c[1]] = ref[c[1]], ref[c[0]]
			if got != want {
				t.Fatalf("group %d proposal %d (%d,%d): SwapCost = %x, full eval = %x",
					g, j, c[0], c[1], math.Float64bits(got), math.Float64bits(want))
			}
		}
		// Commit a random proposal of every few groups: the new committed
		// state supersedes every earlier price, and the next one must
		// follow it bit-exactly.
		if rng.Intn(3) == 0 {
			c := cand[rng.Intn(len(cand))]
			got := sc.Commit(c[0], c[1])
			ref[c[0]], ref[c[1]] = ref[c[1]], ref[c[0]]
			want := EvalAnchors(m, ref, w, occupied)
			if got != want || sc.Cost() != want {
				t.Fatalf("group %d: commit = %x, Cost = %x, full eval = %x",
					g, math.Float64bits(got), math.Float64bits(sc.Cost()), math.Float64bits(want))
			}
		}
	}
	return groups
}

// crossCheckApplied prices random groups of proposals read-only from a
// Scorer's committed state and applies each one to an independent mirror
// Scorer: every price must equal the mirror's Commit of the same swap bit
// for bit, and committing the swap back must restore the mirror's cost
// bit for bit. A random proposal of every few groups is committed on both.
func crossCheckApplied(t *testing.T, m *mesh.Mesh, anchors []mesh.DieID, w Workload, groups int, rng *rand.Rand) int {
	t.Helper()
	pp := len(anchors)
	sc := NewScorer(m, anchors, w)
	mirror := NewScorer(m, anchors, w)
	var cand [][2]int
	for g := 0; g < groups; g++ {
		cand = drawGroup(rng, pp, cand)
		for j, c := range cand {
			got := sc.SwapCost(c[0], c[1])
			want := mirror.Commit(c[0], c[1])
			if back := mirror.Commit(c[0], c[1]); got != want || back != sc.Cost() {
				t.Fatalf("group %d proposal %d (%d,%d): SwapCost = %x, mirror commit = %x; committed back %x, want %x",
					g, j, c[0], c[1], math.Float64bits(got), math.Float64bits(want),
					math.Float64bits(back), math.Float64bits(sc.Cost()))
			}
		}
		if rng.Intn(3) == 0 {
			c := cand[rng.Intn(len(cand))]
			if got, want := sc.Commit(c[0], c[1]), mirror.Commit(c[0], c[1]); got != want {
				t.Fatalf("group %d: commit = %x, mirror commit = %x", g, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	return groups
}

// TestScorerMatchesFullEval is the randomized bit-identity contract of the
// Scorer: every price and every commit must equal — exact float bits, not
// just within epsilon — a full evaluation of the swapped anchor table, on
// both the square and mesh-switch topologies and the 12×12 scale wafer,
// with commits advancing the state between groups of proposals (the
// lifecycle the annealer relies on), because the annealer's acceptance
// decisions (and the sched golden SHA) depend on exact values.
func TestScorerMatchesFullEval(t *testing.T) {
	crossCheckAll(t, crossCheck)
}

// TestScorerBatchMatchesSwapDelta checks each read-only price of a batch
// of proposals against the delta the same swap makes when it is applied:
// a Scorer that commits every proposal and then commits it back must reach
// the priced cost and return to its committed cost, exact float bits, over
// the same topologies and proposal groups as TestScorerMatchesFullEval.
// Each group's swaps and swaps back drive many more commits through the
// link multiset and the transpose than the annealer's accepted moves do.
func TestScorerBatchMatchesSwapDelta(t *testing.T) {
	crossCheckAll(t, crossCheckApplied)
}

// TestScorerSwapCostSymmetric pins that swapping x with y and y with x price
// to the same float bits from every committed state, so a memo of priced
// swaps may key (x, y) and (y, x) together. Every unordered pair is priced
// both ways in each state, with a random commit between states.
func TestScorerSwapCostSymmetric(t *testing.T) {
	pairs := 0
	check := func(t *testing.T, m *mesh.Mesh, anchors []mesh.DieID, w Workload, states int, rng *rand.Rand) {
		t.Helper()
		pp := len(anchors)
		sc := NewScorer(m, anchors, w)
		for st := 0; st < states; st++ {
			for x := 0; x < pp; x++ {
				for y := x + 1; y < pp; y++ {
					xy, yx := sc.SwapCost(x, y), sc.SwapCost(y, x)
					if math.Float64bits(xy) != math.Float64bits(yx) {
						t.Fatalf("state %d: SwapCost(%d,%d) = %x, SwapCost(%d,%d) = %x",
							st, x, y, math.Float64bits(xy), y, x, math.Float64bits(yx))
					}
					pairs++
				}
			}
			x := rng.Intn(pp)
			sc.Commit(x, (x+1+rng.Intn(pp-1))%pp)
		}
	}
	for _, tc := range internedTopologies() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			anchors := partitionAnchors(t, tc.m, tc.tp, tc.pp)
			for trial := 0; trial < 3; trial++ {
				check(t, tc.m, anchors, randomWorkload(rng, tc.pp), 20, rng)
			}
		})
	}
	t.Run("scale12x12-pp128", func(t *testing.T) {
		m := scaleMesh()
		const pp = 128
		rng := rand.New(rand.NewSource(31))
		check(t, m, partitionAnchors(t, m, 1, pp), scaleWorkload(rng, pp), 3, rng)
	})
	t.Logf("%d unordered pairs priced both ways", pairs)
}

// assertZeroAlloc fails t if op allocates on a Scorer of the Config3 pp 8
// partition under the Fig 11 workload or of the 12×12 pp 128 scale wafer,
// whose affected-pair planes span several words. op receives random swaps
// of distinct stages.
func assertZeroAlloc(t *testing.T, what string, op func(sc *Scorer, rng *rand.Rand, x, y int)) {
	t.Helper()
	tc := internedTopologies()[0]
	big := scaleMesh()
	rng := rand.New(rand.NewSource(11))
	for _, sc := range []*Scorer{
		NewScorer(tc.m, partitionAnchors(t, tc.m, tc.tp, tc.pp), fig11Workload()),
		NewScorer(big, partitionAnchors(t, big, 1, 128), scaleWorkload(rng, 128)),
	} {
		pp := len(sc.anchorIdx)
		cycle := func() {
			if x, y := rng.Intn(pp), rng.Intn(pp); x != y {
				op(sc, rng, x, y)
			}
		}
		if allocs := testing.AllocsPerRun(4000, cycle); allocs != 0 {
			t.Fatalf("%s on %d stages allocates %.1f objects/op, want 0", what, pp, allocs)
		}
	}
}

// TestScorerZeroAlloc asserts the annealer's bound/price/commit cycle
// performs no allocations on an interned mesh.
func TestScorerZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "bound/price/commit cycle", func(sc *Scorer, rng *rand.Rand, x, y int) {
		sc.SwapLowerBound(x, y)
		sc.SwapCost(x, y)
		// Commit on a 1-in-4 coin: following a commit must also be
		// allocation-free.
		if rng.Intn(4) == 0 {
			sc.Commit(x, y)
		}
	})
}

// TestScorerBatchZeroAlloc asserts read-only pricing alone performs no
// allocations.
func TestScorerBatchZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "SwapCost", func(sc *Scorer, _ *rand.Rand, x, y int) { sc.SwapCost(x, y) })
}

// TestScorerSwapZeroAlloc asserts applying a swap performs no allocations.
func TestScorerSwapZeroAlloc(t *testing.T) {
	assertZeroAlloc(t, "Commit", func(sc *Scorer, _ *rand.Rand, x, y int) { sc.Commit(x, y) })
}

// TestScorerDiscipline pins the Scorer's preconditions: no degenerate swap,
// interned routes, and every anchor on the mesh.
func TestScorerDiscipline(t *testing.T) {
	tc := internedTopologies()[0]
	anchors := partitionAnchors(t, tc.m, tc.tp, tc.pp)
	sc := NewScorer(tc.m, anchors, fig11Workload())
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		fn()
	}
	mustPanic("degenerate price", func() { sc.SwapCost(3, 3) })
	mustPanic("degenerate commit", func() { sc.Commit(3, 3) })
	mustPanic("mesh past the interning bound", func() { NewScorer(pastBoundMesh(), anchors[:4], Workload{}) })
	mustPanic("anchor off the mesh", func() { NewScorer(tc.m, []mesh.DieID{{X: -1, Y: 0}}, Workload{}) })
}
