// Incremental Eq 2 scoring for the annealer and GA inner loops.
//
// A Scorer holds the Eq 2 evaluation of one stage→anchor assignment in
// decomposed form — the per-pipeline-edge path terms, an incrementally
// maintained occupied-link multiset, and a per-pair cache of the best
// punished path — so that a two-anchor swap re-scores only the ≤4 pipeline
// edges adjacent to the swapped stages plus the pairs whose endpoints moved
// or whose candidate shortest paths cross a link whose occupancy flipped.
// Occupancy flips are recorded in a mesh.LinkSet dirty mask (exposed via
// DirtyLinks and cross-checked in tests) and pushed through a
// link→(pair, path) inverted index, so a flip adjusts a handful of integer
// γ counters — and marks exactly the pairs whose punished minimum could
// have changed — instead of re-walking candidate paths. Everything else
// keeps its stored term, and the total is re-summed from the stored terms
// in the exact accumulation order of the full evaluation, so Cost is
// bit-identical to anchorCost at every step (pinned by
// TestScorerMatchesFullEval and the sched golden SHA).
//
// On meshes small enough for route interning a SwapDelta/Apply/Revert cycle
// performs no steady-state allocations (the inverted index's per-link
// lists grow to a stable capacity during the first sweeps); beyond the
// interning bound the per-call route construction allocates, but the
// asymptotic win stands.
//
// The Scorer is the GA's fitness scratch and holds the annealer's committed
// state on every mesh. Past the interning bound the annealer prices each
// proposal with SwapDelta and undoes a rejection with Revert; within it the
// read-only pricer ScorerBatch (scorer_batch.go) prices proposals against
// the committed state and commits accepted ones through SwapDelta and
// Apply.
package placement

import (
	"math"

	"repro/internal/mesh"
)

// pairRef locates one pair's candidate path in the inverted link index.
type pairRef struct {
	pair int32
	path int32
}

// Scorer incrementally maintains the Eq 2 GlobalCost of a stage→anchor
// assignment under two-anchor swaps. It is single-goroutine scratch state:
// share one per worker, never across workers.
type Scorer struct {
	m  *mesh.Mesh
	w  Workload
	pp int

	anchors []mesh.DieID

	// pipeIDs[s]/pipeTerm[s] decompose the pipeline summand of Eq 2:
	// term = len(path(anchors[s], anchors[s+1])) · PipelineBytes[s].
	pipeIDs  [][]int32
	pipeTerm []float64

	// occCount is the pipeline-path link multiset; occ is its boolean view
	// (the γ-conflict set of Eq 2), with membership flips recorded in the
	// dirty mask each swap. occOne is the "multiplicity exactly one" word
	// vector, maintained in lock-step: together with occ it lets
	// ScorerBatch decide a zero crossing under a ±1 delta with two word
	// operations.
	occCount []int32
	occ      *mesh.LinkSet
	occOne   []uint64
	dirty    *mesh.LinkSet

	// Per-pair state: candidate path ID sequences (1 or 2), their γ
	// conflict counters, and the best punished cost.
	pairValid []bool
	pairN     []int8
	pairIDs   [][2][]int32
	pairGamma [][2]int32
	pairTerm  []float64

	// linkPairs[id] lists the (pair, path) candidates crossing link id, so
	// an occupancy flip adjusts exactly the affected γ counters;
	// stagePairs[s] lists the valid pairs with an endpoint at stage s, so
	// a swap re-attaches exactly the pairs whose endpoints moved.
	linkPairs  [][]pairRef
	stagePairs [][]int32

	// Per-swap epoch marking: touched collects the pairs whose γ counters
	// changed (their punished minimum is re-derived), movedStamp guards
	// against re-attaching a pair twice when both its endpoints moved.
	stamp        int64
	touched      []int32
	touchedStamp []int64
	movedStamp   []int64

	cost float64

	// gen counts committed-state changes (Reset, Apply). ScorerBatch keys
	// its term vector on it: a Revert restores every stored term bit for
	// bit, so only commits invalidate the pricer's copy.
	gen int64

	// pending swap, held until Apply or Revert.
	pending      bool
	pendA, pendB int
	prevCost     float64
}

// NewScorer builds a Scorer for the assignment. anchors[s] is the routing
// endpoint of stage s; the slice is copied. The full evaluation it performs
// is the same one GlobalCost runs, term for term.
func NewScorer(m *mesh.Mesh, anchors []mesh.DieID, w Workload) *Scorer {
	sc := &Scorer{
		m:         m,
		occCount:  make([]int32, m.NumLinks()),
		occOne:    make([]uint64, (m.NumLinks()+63)/64),
		occ:       m.NewLinkSet(),
		dirty:     m.NewLinkSet(),
		linkPairs: make([][]pairRef, m.NumLinks()),
	}
	sc.occ.TrackDirty(sc.dirty)
	sc.Reset(anchors, w)
	return sc
}

// Reset re-targets the Scorer at a new assignment and workload, reusing
// every buffer (the per-worker scratch path of the GA fitness evaluator).
func (sc *Scorer) Reset(anchors []mesh.DieID, w Workload) {
	sc.pp = len(anchors)
	sc.w = w
	sc.pending = false
	sc.gen++
	if cap(sc.anchors) < sc.pp {
		sc.anchors = make([]mesh.DieID, sc.pp)
		sc.pipeIDs = make([][]int32, sc.pp)
		sc.pipeTerm = make([]float64, sc.pp)
		sc.stagePairs = make([][]int32, sc.pp)
	}
	sc.anchors = sc.anchors[:sc.pp]
	copy(sc.anchors, anchors)
	sc.pipeIDs = sc.pipeIDs[:sc.pp]
	sc.pipeTerm = sc.pipeTerm[:sc.pp]
	sc.stagePairs = sc.stagePairs[:sc.pp]
	for s := range sc.stagePairs {
		sc.stagePairs[s] = sc.stagePairs[s][:0]
	}
	np := len(w.Pairs)
	if cap(sc.pairValid) < np {
		sc.pairValid = make([]bool, np)
		sc.pairN = make([]int8, np)
		sc.pairIDs = make([][2][]int32, np)
		sc.pairGamma = make([][2]int32, np)
		sc.pairTerm = make([]float64, np)
		sc.touched = make([]int32, 0, np)
		sc.touchedStamp = make([]int64, np)
		sc.movedStamp = make([]int64, np)
	}
	sc.pairValid = sc.pairValid[:np]
	sc.pairN = sc.pairN[:np]
	sc.pairIDs = sc.pairIDs[:np]
	sc.pairGamma = sc.pairGamma[:np]
	sc.pairTerm = sc.pairTerm[:np]
	sc.touched = sc.touched[:0]
	sc.touchedStamp = sc.touchedStamp[:np]
	sc.movedStamp = sc.movedStamp[:np]
	sc.stamp = 0
	for i := range sc.touchedStamp {
		sc.touchedStamp[i] = -1
		sc.movedStamp[i] = -1
	}

	for i := range sc.occCount {
		sc.occCount[i] = 0
	}
	for i := range sc.occOne {
		sc.occOne[i] = 0
	}
	sc.occ.Clear()
	for id := range sc.linkPairs {
		sc.linkPairs[id] = sc.linkPairs[id][:0]
	}
	for s := 0; s+1 < sc.pp; s++ {
		ids := sc.m.XYPathIDs(sc.anchors[s], sc.anchors[s+1])
		sc.pipeIDs[s] = ids
		sc.pipeTerm[s] = float64(len(ids)) * sc.pipeVol(s)
		for _, id := range ids {
			sc.occCount[id]++
			switch sc.occCount[id] {
			case 1:
				sc.occ.Add(int(id))
				sc.occOne[id>>6] |= 1 << (uint32(id) & 63)
			case 2:
				sc.occOne[id>>6] &^= 1 << (uint32(id) & 63)
			}
		}
	}
	for i, pr := range w.Pairs {
		sc.pairValid[i] = pr.Sender >= 0 && pr.Sender < sc.pp && pr.Helper >= 0 && pr.Helper < sc.pp
		if sc.pairValid[i] {
			sc.stagePairs[pr.Sender] = append(sc.stagePairs[pr.Sender], int32(i))
			if pr.Helper != pr.Sender {
				sc.stagePairs[pr.Helper] = append(sc.stagePairs[pr.Helper], int32(i))
			}
			sc.attachPair(i)
		}
	}
	sc.resum()
}

// Cost returns the Eq 2 cost of the current assignment — bit-identical to a
// fresh full evaluation (EvalAnchors) of the same anchors. While a swap is
// pending it reflects the proposed assignment.
func (sc *Scorer) Cost() float64 { return sc.cost }

// Anchors returns the current anchor table (shared, read-only).
func (sc *Scorer) Anchors() []mesh.DieID { return sc.anchors }

// DirtyLinks returns the mask of links whose occupancy flipped during the
// most recent SwapDelta/Revert (shared, read-only) — the flip record the
// cross-check tests validate the incremental bookkeeping against.
func (sc *Scorer) DirtyLinks() *mesh.LinkSet { return sc.dirty }

// SwapDelta proposes swapping the anchors of stages a and b, re-scoring
// only the pipeline edges adjacent to a and b and the pairs whose endpoints
// moved or whose candidate paths cross a link whose occupancy flipped. It
// returns the proposed assignment's cost and the delta against the previous
// cost. The swap is held pending: commit it with Apply or undo it with
// Revert before proposing another.
func (sc *Scorer) SwapDelta(a, b int) (newCost, delta float64) {
	if sc.pending {
		panic("placement: SwapDelta with a pending swap (call Apply or Revert first)")
	}
	sc.pending, sc.pendA, sc.pendB = true, a, b
	sc.prevCost = sc.cost
	sc.applySwap(a, b)
	return sc.cost, sc.cost - sc.prevCost
}

// Apply commits the pending swap.
func (sc *Scorer) Apply() {
	if !sc.pending {
		panic("placement: Apply without a pending swap")
	}
	sc.pending = false
	sc.gen++
}

// Revert undoes the pending swap by re-applying it: a two-anchor swap is an
// involution, and re-scoring the restored state reproduces every stored
// term bit for bit (pinned by TestScorerMatchesFullEval).
func (sc *Scorer) Revert() {
	if !sc.pending {
		panic("placement: Revert without a pending swap")
	}
	sc.applySwap(sc.pendA, sc.pendB)
	sc.pending = false
}

func (sc *Scorer) pipeVol(s int) float64 {
	if s < len(sc.w.PipelineBytes) {
		return sc.w.PipelineBytes[s]
	}
	return 0
}

// applySwap swaps anchors[a] and anchors[b] and incrementally restores the
// Scorer invariants: every stored term equals what a fresh full evaluation
// of the new assignment would compute.
func (sc *Scorer) applySwap(a, b int) {
	sc.anchors[a], sc.anchors[b] = sc.anchors[b], sc.anchors[a]
	sc.dirty.Clear()
	sc.stamp++
	sc.touched = sc.touched[:0]

	// The ≤4 pipeline edges touching a moved anchor (edge s joins stages s
	// and s+1), deduplicated for adjacent or boundary swaps.
	var edges [4]int
	ne := 0
	addEdge := func(s int) {
		if s < 0 || s+1 >= sc.pp {
			return
		}
		for i := 0; i < ne; i++ {
			if edges[i] == s {
				return
			}
		}
		edges[ne] = s
		ne++
	}
	addEdge(a - 1)
	addEdge(a)
	addEdge(b - 1)
	addEdge(b)
	occCount := sc.occCount
	for i := 0; i < ne; i++ {
		for _, id := range sc.pipeIDs[edges[i]] {
			occCount[id]--
			switch occCount[id] {
			case 1:
				sc.occOne[id>>6] |= 1 << (uint32(id) & 63)
			case 0:
				// Occupancy flip 1→0: the Remove records the flip in the
				// dirty mask (TrackDirty), and -1 goes into the γ counters
				// of the candidate paths crossing the link.
				sc.occOne[id>>6] &^= 1 << (uint32(id) & 63)
				sc.occ.Remove(int(id))
				if refs := sc.linkPairs[id]; len(refs) != 0 {
					sc.adjustGamma(refs, -1)
				}
			}
		}
	}
	for i := 0; i < ne; i++ {
		s := edges[i]
		ids := sc.m.XYPathIDs(sc.anchors[s], sc.anchors[s+1])
		sc.pipeIDs[s] = ids
		sc.pipeTerm[s] = float64(len(ids)) * sc.pipeVol(s)
		for _, id := range ids {
			occCount[id]++
			switch occCount[id] {
			case 1:
				// Occupancy flip 0→1, mirrored.
				sc.occOne[id>>6] |= 1 << (uint32(id) & 63)
				sc.occ.Add(int(id))
				if refs := sc.linkPairs[id]; len(refs) != 0 {
					sc.adjustGamma(refs, +1)
				}
			case 2:
				sc.occOne[id>>6] &^= 1 << (uint32(id) & 63)
			}
		}
	}

	// Pairs with a moved endpoint re-derive their candidate paths against
	// the settled occupancy (their stale γ adjustments from above are
	// overwritten by the fresh count).
	for _, pi := range sc.stagePairs[a] {
		if sc.movedStamp[pi] != sc.stamp {
			sc.movedStamp[pi] = sc.stamp
			sc.detachPair(int(pi))
			sc.attachPair(int(pi))
		}
	}
	for _, pi := range sc.stagePairs[b] {
		if sc.movedStamp[pi] != sc.stamp {
			sc.movedStamp[pi] = sc.stamp
			sc.detachPair(int(pi))
			sc.attachPair(int(pi))
		}
	}
	// Unmoved pairs whose γ counters changed re-derive only the punished
	// minimum — two multiplies per candidate, no path walks.
	for _, pi := range sc.touched {
		if sc.movedStamp[pi] != sc.stamp {
			sc.minPair(int(pi))
		}
	}
	sc.resum()
}

// adjustGamma pushes one occupancy flip into the γ counters of the
// candidate paths crossing the flipped link, marking the owning pairs for
// a punished-minimum refresh. A link that flips twice within one swap
// self-cancels in the counters; the mark only costs an idempotent re-min.
func (sc *Scorer) adjustGamma(refs []pairRef, delta int32) {
	for _, ref := range refs {
		sc.pairGamma[ref.pair][ref.path] += delta
		if sc.touchedStamp[ref.pair] != sc.stamp {
			sc.touchedStamp[ref.pair] = sc.stamp
			sc.touched = append(sc.touched, ref.pair)
		}
	}
}

// attachPair derives pair i's candidate ID paths from the current anchors,
// registers them in the inverted index, counts γ against the occupied set,
// and stores the punished minimum.
func (sc *Scorer) attachPair(i int) {
	pr := &sc.w.Pairs[i]
	paths := sc.m.ShortestPathIDs(sc.anchors[pr.Sender], sc.anchors[pr.Helper])
	sc.pairN[i] = int8(len(paths))
	for k, ids := range paths {
		sc.pairIDs[i][k] = ids
		sc.pairGamma[i][k] = int32(sc.occ.CountIn(ids))
		for _, id := range ids {
			sc.linkPairs[id] = append(sc.linkPairs[id], pairRef{pair: int32(i), path: int32(k)})
		}
	}
	sc.minPair(i)
}

// detachPair removes pair i's candidate paths from the inverted index.
func (sc *Scorer) detachPair(i int) {
	for k := int8(0); k < sc.pairN[i]; k++ {
		for _, id := range sc.pairIDs[i][k] {
			list := sc.linkPairs[id]
			for j, ref := range list {
				if ref.pair == int32(i) && ref.path == int32(k) {
					list[j] = list[len(list)-1]
					sc.linkPairs[id] = list[:len(list)-1]
					break
				}
			}
		}
		sc.pairIDs[i][k] = nil
	}
}

// minPair recomputes pair i's best punished cost from the maintained γ
// counters with the expression of the full evaluation: min over candidate
// paths of len·bytes·(1+γ), in candidate order.
func (sc *Scorer) minPair(i int) {
	pr := &sc.w.Pairs[i]
	best := math.Inf(1)
	for k := int8(0); k < sc.pairN[i]; k++ {
		c := float64(len(sc.pairIDs[i][k])) * pr.Bytes * (1 + float64(sc.pairGamma[i][k]))
		if c < best {
			best = c
		}
	}
	sc.pairTerm[i] = best
}

// resum rebuilds the total from the stored terms in the exact accumulation
// order of the full evaluation — pipeline edges in stage order, then valid
// finite pairs in declaration order — so incremental maintenance never
// drifts from anchorCost by a ULP.
func (sc *Scorer) resum() {
	var cost float64
	for s := 0; s+1 < sc.pp; s++ {
		cost += sc.pipeTerm[s]
	}
	for i := range sc.w.Pairs {
		if !sc.pairValid[i] {
			continue
		}
		if t := sc.pairTerm[i]; !math.IsInf(t, 1) {
			cost += t
		}
	}
	sc.cost = cost
}

// EvalAnchors evaluates Eq 2 for an explicit stage→anchor table in one full
// pass — the non-incremental scoring the annealer ran before the Scorer
// existed. It is the reference the randomized cross-check tests and the
// annealer-iteration benchmark compare the Scorer against; occupied is
// caller-provided scratch (cleared here).
func EvalAnchors(m *mesh.Mesh, anchors []mesh.DieID, w Workload, occupied *mesh.LinkSet) float64 {
	return anchorCost(m, anchors, w, occupied)
}
