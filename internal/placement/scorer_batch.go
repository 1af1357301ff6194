// Read-only swap pricing for the annealer on meshes with interned routes.
//
// ScorerBatch prices one proposed two-anchor swap against a Scorer's
// committed assignment without mutating it (SwapCost), and applies an
// accepted one (Commit). It keeps no copy of state the mesh or the Scorer
// already holds: routes are read as the mesh's interned link bitmasks
// (mesh.InternedMaskArena) at the committed anchors' offsets, occupancy as
// the Scorer's word vectors and multiset. What it owns is derived layout:
//
//   - a term vector (pipeline-edge terms in stage order, then the finite
//     valid pair terms in declaration order) with its running prefix sums,
//     refreshed from the committed Scorer and keyed on its generation
//     counter, plus a lane copy patched only at a proposal's dirty entries
//     (≤4 pipeline edges, moved pairs, γ-touched pairs);
//   - the dense die index of every committed anchor, so a route mask is a
//     pure arena offset;
//   - the link→pair transpose linkPB, so the pairs whose committed paths
//     cross a flipped link accumulate as a few OR operations.
//
// A proposal's rerouted pipeline edges become word planes of removed and
// added links, distilled into an occupancy-after word vector, so pair γ
// counts are flat AND+popcount loops over link masks. Because every lane
// entry is either the committed term (bit-copied) or recomputed with the
// exact expression the Scorer uses, and the lane sum visits terms in the
// Scorer's resum order, SwapCost is bit-identical to the newCost SwapDelta
// would return from the same committed state — pinned by
// TestScorerBatchMatchesSwapDelta. Invalid and infinite pair terms appear
// as +0.0 lane entries, an exact additive identity, so layout never
// perturbs a single float bit.
//
// Relative to a SwapDelta+Revert round trip, a rejected proposal costs one
// read-only evaluation instead of two incremental rewrites with their
// inverted-index detach/attach churn and multiset writes. NewScorerBatch
// panics unless the mesh has interned routes and every anchor is on the
// mesh; Optimize prices with SwapDelta on meshes past the bound.
package placement

import (
	"math"
	"math/bits"
)

// ScorerBatch prices swaps read-only over a Scorer's committed state. Like
// the Scorer it is single-goroutine scratch: share one per worker, never
// across workers.
type ScorerBatch struct {
	sc *Scorer

	// Term vector of the committed state: pipeline-edge terms in stage
	// order followed by the valid pairs' terms in declaration order (+0.0
	// for infinite terms). pairSlot maps pair index → term slot (-1 when the
	// pair is invalid). gen is the Scorer generation the vector belongs to.
	// pfx[i] is the running sum of base[0..i-1] in the scalar resum order —
	// the exact partial-sum sequence the scalar accumulator passes through.
	// Every slot a proposal dirties is ≥ its d0 = max(0, min(x,y)-1)
	// (pipeline slots x-1..y are; pair slots start at pp-1), so the sum can
	// start from pfx[d0] bit-exactly and skip the clean prefix.
	//
	// lane is kept equal to base between proposals: a pricing writes only
	// its dirty slots (the patched list), sums lane[d0:] in the scalar
	// resum order, then restores the patched slots from base.
	pairSlot []int32
	base     []float64
	pfx      []float64
	lane     []float64
	patched  []int32
	gen      int64

	// anchorIdx caches the dense die index of every committed stage anchor.
	anchorIdx []int32

	// linkPB holds, per link, an npw-word bitmask of the valid pairs whose
	// committed candidate paths cross it. Commit keeps it current: the
	// moved pairs' bits are cleared along their paths before the swap and
	// set along their new paths after it.
	linkPB []uint64
	npw    int
	affW   []uint64

	// maskArena is the mesh's flat interned route-mask store (2·nw words
	// per ordered die pair: XY mask then YX mask, zero when the route is
	// straight); nDies is its row stride. Hop counts are popcounts of the
	// mask words the pricing loads anyway.
	maskArena []uint64
	nDies     int
	nw        int
	// remA/addA accumulate the proposal's net removal/addition planes and
	// ovA the overlap plane. They are struct scratch rather than locals
	// purely to avoid duffzero of full maskWStack-wide arrays per proposal
	// — they are zeroed explicitly up to the mesh's word count only.
	remA [maskWStack]uint64
	addA [maskWStack]uint64
	ovA  [maskWStack]uint64
	// eoP/enP are the per-dirty-edge removal/addition planes backing the
	// overlap probes. Struct scratch for the same reason: a local
	// [4][maskWStack]uint64 pair costs a duffzero per proposal, while only
	// [0:ne][0:nw] is ever written then read.
	eoP [4][maskWStack]uint64
	enP [4][maskWStack]uint64

	// Per-proposal scratch: occAfter is the committed occupancy word vector
	// with the proposal's flipped links toggled; movedEpoch marks the pairs
	// a proposal already re-derived, reused across proposals through epoch
	// stamping (no clearing passes).
	epoch      int64
	occAfter   []uint64
	movedEpoch []int64
}

// NewScorerBatch returns a read-only pricer over sc's committed state. It
// observes sc through its generation counter: any commit made directly on
// the Scorer (Apply, Reset) resyncs the pricer on the next SwapCost. It
// panics unless sc's mesh has interned routes and every anchor of sc is on
// the mesh.
func NewScorerBatch(sc *Scorer) *ScorerBatch {
	arena := sc.m.InternedMaskArena()
	if arena == nil {
		panic("placement: ScorerBatch needs a mesh with interned routes")
	}
	for _, a := range sc.anchors {
		if sc.m.DieIndex(a) < 0 {
			panic("placement: ScorerBatch anchor off the mesh")
		}
	}
	return &ScorerBatch{
		sc:        sc,
		gen:       sc.gen - 1, // force a sync on the first SwapCost
		maskArena: arena,
		nDies:     sc.m.Dies(),
		nw:        len(sc.occ.Words()),
	}
}

// check guards the protocol shared by SwapCost and Commit.
func (b *ScorerBatch) check(op string, x, y int) {
	if b.sc.pending {
		panic("placement: ScorerBatch." + op + " with a pending swap on the Scorer")
	}
	if x == y {
		panic("placement: ScorerBatch." + op + " of a degenerate swap")
	}
}

// SwapCost returns the cost of the committed assignment with the anchors of
// stages x and y swapped — bit-identical to the newCost a SwapDelta(x, y)
// would return — without touching the committed state.
func (b *ScorerBatch) SwapCost(x, y int) float64 {
	b.check("SwapCost", x, y)
	if b.gen != b.sc.gen {
		b.sync()
	}
	return b.swapCost(x, y)
}

// Commit applies the swap of stages x and y to the Scorer through its
// scalar SwapDelta/Apply path, so the Scorer's own incremental invariants
// are maintained normally, and returns the committed cost. When the pricer
// was in sync with the pre-commit state it follows the swap incrementally;
// otherwise the next SwapCost resyncs in full.
func (b *ScorerBatch) Commit(x, y int) float64 {
	b.check("Commit", x, y)
	sc := b.sc
	synced := b.gen == sc.gen
	if synced {
		b.markPairs(x, false)
		b.markPairs(y, false)
	}
	c, _ := sc.SwapDelta(x, y)
	sc.Apply()
	if synced {
		b.markPairs(x, true)
		b.markPairs(y, true)
		b.anchorIdx[x], b.anchorIdx[y] = b.anchorIdx[y], b.anchorIdx[x]
		b.fillTerms()
	}
	return c
}

// markPairs clears (on == false) or sets the linkPB bits of the valid pairs
// attached to stage s along their committed candidate paths. A pair
// attached at both swapped stages is visited twice; both operations are
// idempotent.
func (b *ScorerBatch) markPairs(s int, on bool) {
	sc := b.sc
	npw := b.npw
	for _, pi := range sc.stagePairs[s] {
		pw, pb := int(pi)>>6, uint64(1)<<(uint32(pi)&63)
		for k := int8(0); k < sc.pairN[pi]; k++ {
			for _, id := range sc.pairIDs[pi][k] {
				if on {
					b.linkPB[int(id)*npw+pw] |= pb
				} else {
					b.linkPB[int(id)*npw+pw] &^= pb
				}
			}
		}
	}
}

// sync (re)sizes the pricer for the Scorer's current workload and rebuilds
// its term vector, anchor indices and link→pair transpose from the
// committed state.
func (b *ScorerBatch) sync() {
	sc := b.sc
	np := len(sc.w.Pairs)
	if cap(b.pairSlot) < np {
		b.pairSlot = make([]int32, np)
		b.movedEpoch = make([]int64, np)
	}
	b.pairSlot = b.pairSlot[:np]
	b.movedEpoch = b.movedEpoch[:np]

	nterm := sc.pp - 1
	for i := 0; i < np; i++ {
		if sc.pairValid[i] {
			b.pairSlot[i] = int32(nterm)
			nterm++
		} else {
			b.pairSlot[i] = -1
		}
	}
	if cap(b.base) < nterm {
		b.base = make([]float64, nterm)
		b.pfx = make([]float64, nterm+1)
		b.lane = make([]float64, nterm)
		b.patched = make([]int32, 0, nterm)
	}
	b.base = b.base[:nterm]
	b.pfx = b.pfx[:nterm+1]
	b.lane = b.lane[:nterm]
	b.patched = b.patched[:0]
	if cap(b.anchorIdx) < sc.pp {
		b.anchorIdx = make([]int32, sc.pp)
	}
	b.anchorIdx = b.anchorIdx[:sc.pp]
	for s := 0; s < sc.pp; s++ {
		b.anchorIdx[s] = int32(sc.m.DieIndex(sc.anchors[s]))
	}
	b.fillTerms()

	npw := (np + 63) / 64
	b.npw = npw
	nl := len(sc.occCount)
	if cap(b.linkPB) < nl*npw {
		b.linkPB = make([]uint64, nl*npw)
	}
	b.linkPB = b.linkPB[:nl*npw]
	for i := range b.linkPB {
		b.linkPB[i] = 0
	}
	for s := range sc.stagePairs {
		b.markPairs(s, true)
	}
	if cap(b.affW) < npw {
		b.affW = make([]uint64, npw)
	}
	b.affW = b.affW[:npw]
	if cap(b.occAfter) < b.nw {
		b.occAfter = make([]uint64, b.nw)
	}
	b.occAfter = b.occAfter[:b.nw]
}

// fillTerms copies the committed Scorer's terms into the term vector and
// its lane, re-derives the prefix sums, and marks the pricer in sync.
func (b *ScorerBatch) fillTerms() {
	sc := b.sc
	for s := 0; s+1 < sc.pp; s++ {
		b.base[s] = sc.pipeTerm[s]
	}
	for i, slot := range b.pairSlot {
		if slot >= 0 {
			if t := sc.pairTerm[i]; !math.IsInf(t, 1) {
				b.base[slot] = t
			} else {
				b.base[slot] = 0
			}
		}
	}
	b.pfx[0] = 0
	for i, t := range b.base {
		b.pfx[i+1] = b.pfx[i] + t
	}
	copy(b.lane, b.base)
	b.gen = sc.gen
}

// routeOff returns the arena offset of the route masks from die index u to
// die index v.
func (b *ScorerBatch) routeOff(u, v int32) int {
	return (int(u)*b.nDies + int(v)) * (2 * b.nw)
}

// maskWStack is the word width of the fixed-size delta planes of the
// word-parallel pricing — 768 links. A mesh of n dies has fewer than 4n
// directed links, so every mesh within the interning bound of 160 dies fits
// (the 12×12 scale wafer has 528 links). The accumulator planes are zeroed
// per proposal only up to the mesh's word count, so the headroom costs
// nothing on small meshes.
const maskWStack = 12

// sumRestore finishes a proposal: it sums the patched lane from pfx[d0] in
// the exact scalar resum order, then restores every patched slot to its base
// value, re-establishing the lane == base invariant for the next proposal.
func (b *ScorerBatch) sumRestore(d0 int) float64 {
	c := b.pfx[d0]
	for _, v := range b.lane[d0:] {
		c += v
	}
	base := b.base
	lane := b.lane
	for _, s := range b.patched {
		lane[s] = base[s]
	}
	b.patched = b.patched[:0]
	return c
}

// swapCost prices the swap of x and y word-parallel: per dirty edge, the
// committed and proposed routes are interned link bitmasks, and AND-NOT
// cancels their shared links (net delta zero — the word-level form of
// prefix/suffix trimming). A surviving removal or addition hits its link
// exactly once unless two different edges touch the same link; those links
// accumulate in the overlap plane ovW. Outside ovW all deltas are ±1, so a
// link flips down iff its committed multiplicity is exactly one and up iff
// it was unoccupied — two word operations against the Scorer's occOne and
// occupancy vectors. The few ovW links (pipeline chains are locally
// collinear, so rerouted paths do retrace neighbouring edges) are resolved
// exactly by probing the edge masks for the link's net multiset delta.
func (b *ScorerBatch) swapCost(x, y int) float64 {
	sc := b.sc
	ai := b.anchorIdx

	// The ≤4 dirty edges in scalar applySwap order (x-1, x, y-1, y, clamped
	// and deduplicated — x ≠ y, so the only possible duplicates are
	// y-1 == x and y == x-1).
	var edges [4]int
	var hops [4]int
	ne := 0
	if x > 0 {
		edges[ne] = x - 1
		ne++
	}
	if x+1 < sc.pp {
		edges[ne] = x
		ne++
	}
	if y > 0 && y-1 != x {
		edges[ne] = y - 1
		ne++
	}
	if y+1 < sc.pp && y != x-1 {
		edges[ne] = y
		ne++
	}

	// The accumulator planes are fixed-size struct scratch (every interned
	// mesh fits maskWStack): remA/addA are the net removal/addition words,
	// ovA the overlap plane.
	nw := b.nw
	arena := b.maskArena
	remA, addA, ovA := &b.remA, &b.addA, &b.ovA
	// Per-edge removal/addition planes (struct scratch), so the overlap
	// probes read a link's per-edge delta directly instead of re-deriving it
	// from arena words per bit — the probe loop runs per overlap *bit*, and
	// collinear pipeline reroutes make overlap bits common. Only
	// [0:ne][0:nw] is written then read, so the planes are never cleared;
	// the first edge initialises the accumulator planes (ne ≥ 1 whenever
	// pp ≥ 2), so those are never cleared separately either.
	eoP, enP := &b.eoP, &b.enP
	for i := 0; i < ne; i++ {
		s := edges[i]
		u := ai[s]
		if s == x {
			u = ai[y]
		} else if s == y {
			u = ai[x]
		}
		v := ai[s+1]
		if s+1 == x {
			v = ai[y]
		} else if s+1 == y {
			v = ai[x]
		}
		e := b.routeOff(u, v)
		nm := arena[e : e+nw]
		oo := b.routeOff(ai[s], ai[s+1])
		om := arena[oo : oo+nw]
		eoI, enI := &eoP[i], &enP[i]
		h := 0
		if i == 0 {
			for w := 0; w < nw; w++ {
				omw, nmw := om[w], nm[w]
				h += bits.OnesCount64(nmw)
				eo := omw &^ nmw
				en := nmw &^ omw
				remA[w] = eo
				addA[w] = en
				ovA[w] = 0
				eoI[w] = eo
				enI[w] = en
			}
		} else {
			for w := 0; w < nw; w++ {
				omw, nmw := om[w], nm[w]
				h += bits.OnesCount64(nmw)
				eo := omw &^ nmw
				en := nmw &^ omw
				ovA[w] |= (remA[w] | addA[w]) & (eo | en)
				remA[w] |= eo
				addA[w] |= en
				eoI[w] = eo
				enI[w] = en
			}
		}
		hops[i] = h
	}

	d0 := x - 1
	if y < x {
		d0 = y - 1
	}
	if d0 < 0 {
		d0 = 0
	}
	lane := b.lane
	patched := b.patched
	for i := 0; i < ne; i++ {
		s := edges[i]
		lane[s] = float64(hops[i]) * sc.pipeVol(s)
		patched = append(patched, int32(s))
	}
	b.patched = patched

	// Zero crossings, reusing remA as the per-word flip vector: the ±1 word
	// formula outside the overlap plane, an exact per-link multiset probe
	// inside it.
	occW := sc.occ.Words()
	occOne := sc.occOne
	occCount := sc.occCount
	var anyFlip uint64
	for w := 0; w < nw; w++ {
		f := ((remA[w] & occOne[w]) | (addA[w] &^ occW[w])) &^ ovA[w]
		o := ovA[w]
		for o != 0 {
			tz := bits.TrailingZeros64(o)
			bit := uint64(1) << uint(tz)
			o &^= bit
			delta := 0
			for j := 0; j < ne; j++ {
				if eoP[j][w]&bit != 0 {
					delta--
				} else if enP[j][w]&bit != 0 {
					delta++
				}
			}
			cnt := int(occCount[w<<6+tz])
			if (cnt > 0) != (cnt+delta > 0) {
				f |= bit
			}
		}
		remA[w] = f
		anyFlip |= f
	}
	b.epoch++
	ep := b.epoch
	flipped := anyFlip != 0
	if flipped {
		copy(b.occAfter, occW)
		npw := b.npw
		affW := b.affW
		linkPB := b.linkPB
		if npw == 1 {
			// Common case (≤64 pairs): the affected-pair plane is one word.
			var aff uint64
			for w := 0; w < nw; w++ {
				f := remA[w]
				if f == 0 {
					continue
				}
				b.occAfter[w] ^= f
				base := w << 6
				for f != 0 {
					aff |= linkPB[base+bits.TrailingZeros64(f)]
					f &= f - 1
				}
			}
			affW[0] = aff
		} else {
			for i := 0; i < npw; i++ {
				affW[i] = 0
			}
			for w := 0; w < nw; w++ {
				f := remA[w]
				if f == 0 {
					continue
				}
				b.occAfter[w] ^= f
				base := w << 6
				for f != 0 {
					id := base + bits.TrailingZeros64(f)
					f &= f - 1
					off := id * npw
					for j := 0; j < npw; j++ {
						affW[j] |= linkPB[off+j]
					}
				}
			}
		}
		occW = b.occAfter
	}
	b.patchPairs(x, y, ep, occW, flipped)
	return b.sumRestore(d0)
}

// patchPairs patches the proposal's pair terms: pairs with a moved endpoint
// re-derive their punished minimum from the routes between their proposed
// anchors, then unmoved pairs with a committed path through a flipped link
// re-derive it from the routes between their committed anchors — both as
// flat AND+popcount γ counts against the occupancy-after words (exactly as
// the scalar attachPair and minPair do against the settled occupancy). A
// pair whose flips cancel recomputes the identical term (same γ, same
// expression — bit-equal to the base copy).
func (b *ScorerBatch) patchPairs(x, y int, ep int64, occW []uint64, flipped bool) {
	sc := b.sc
	ai := b.anchorIdx
	for _, pi := range sc.stagePairs[x] {
		b.movedPair(int(pi), x, y, ep, occW)
	}
	for _, pi := range sc.stagePairs[y] {
		b.movedPair(int(pi), x, y, ep, occW)
	}
	if !flipped {
		return
	}
	for w, word := range b.affW {
		for word != 0 {
			pi := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if b.movedEpoch[pi] == ep {
				continue
			}
			pr := &sc.w.Pairs[pi]
			slot := b.pairSlot[pi]
			b.lane[slot] = b.pairCost(pr.Bytes, ai[pr.Sender], ai[pr.Helper], occW)
			b.patched = append(b.patched, slot)
		}
	}
}

// movedPair re-derives the term of a pair whose endpoint anchors move under
// the swap of x and y, once per proposal.
func (b *ScorerBatch) movedPair(pi, x, y int, ep int64, occW []uint64) {
	if b.movedEpoch[pi] == ep {
		return
	}
	b.movedEpoch[pi] = ep
	slot := b.pairSlot[pi]
	b.patched = append(b.patched, slot)
	ai := b.anchorIdx
	pr := &b.sc.w.Pairs[pi]
	u := ai[pr.Sender]
	if pr.Sender == x {
		u = ai[y]
	} else if pr.Sender == y {
		u = ai[x]
	}
	v := ai[pr.Helper]
	if pr.Helper == x {
		v = ai[y]
	} else if pr.Helper == y {
		v = ai[x]
	}
	b.lane[slot] = b.pairCost(pr.Bytes, u, v, occW)
}

// pairCost is a pair's lane term between die indices u and v: the minimum
// over its candidate routes of len·bytes·(1+γ), in candidate order, with γ
// counted against the occupancy words occW — +0.0 where the Scorer's term
// would be infinite. One pass per route over the arena words yields both
// the hop count (total popcount — each route link is one mask bit) and γ.
// The YX slot is all-zero exactly when the pair has one route, which its
// popcount detects for free; u == v yields 0 either way, same as the
// scalar walk.
func (b *ScorerBatch) pairCost(bytes float64, u, v int32, occW []uint64) float64 {
	nw := b.nw
	e := b.routeOff(u, v)
	m0 := b.maskArena[e : e+nw]
	m1 := b.maskArena[e+nw : e+2*nw]
	h0, g0, h1, g1 := 0, 0, 0, 0
	for w, ow := range occW[:nw] {
		h0 += bits.OnesCount64(m0[w])
		g0 += bits.OnesCount64(m0[w] & ow)
		h1 += bits.OnesCount64(m1[w])
		g1 += bits.OnesCount64(m1[w] & ow)
	}
	best := math.Inf(1)
	if c := float64(h0) * bytes * (1 + float64(g0)); c < best {
		best = c
	}
	if h1 > 0 {
		if c := float64(h1) * bytes * (1 + float64(g1)); c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}
