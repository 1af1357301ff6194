// Batched K-candidate swap evaluation, used only by the speculative
// annealer (OptimizeWindow).
//
// ScorerBatch evaluates up to K proposed two-anchor swaps against one
// committed assignment without mutating it. It shares everything heavy with
// the scalar Scorer — the mesh, the interned route masks, the
// occupied-link multiset and every stored Eq 2 term — and lays its own work
// out struct-of-arrays style:
//
//   - a base term vector (pipeline-edge terms in stage order, then the
//     finite valid pair terms in declaration order) snapshotted from the
//     committed Scorer and keyed on its generation counter;
//   - one candidate term vector, kept equal to the base and patched only at
//     the candidate's dirty entries (≤4 pipeline edges, moved pairs,
//     γ-touched pairs);
//   - word planes of the links the candidate's rerouted pipeline edges
//     remove and add, read off the mesh's interned route bitmasks and
//     distilled into an occupancy-after word vector, so pair γ counts are
//     flat AND+popcount loops over link masks.
//
// The evaluation reads routes only as interned bitmasks, so it requires a
// mesh within the interning bound (mesh.InternedMaskArena non-nil) and
// anchors on the mesh; NewScorerBatch checks both and panics otherwise.
// OptimizeWindow runs its scalar loop on meshes past the bound.
//
// The K costs then fall out of K flat []float64 lane sums. Because every
// lane entry is either the committed term (bit-copied) or recomputed with
// the exact expression the scalar path uses, and the lane sum visits terms
// in the scalar resum order, each candidate's cost is bit-identical to what
// a sequential SwapDelta would return from the same committed state —
// pinned by TestScorerBatchMatchesSwapDelta. Invalid and infinite pair
// terms appear as +0.0 lane entries, an exact additive identity, so layout
// never perturbs a single float bit.
//
// Relative to K scalar SwapDelta+Revert round trips, a batch pass performs
// no revert sweep, no inverted-index detach/attach churn and no multiset
// writes — rejected candidates (the vast majority in the late anneal) cost
// one read-only evaluation instead of two full incremental rewrites.
package placement

import (
	"math"
	"math/bits"
)

// ScorerBatch is a K-candidate batch evaluator over a Scorer's committed
// state. Like the Scorer it is single-goroutine scratch: share one per
// worker, never across workers.
type ScorerBatch struct {
	sc  *Scorer
	kap int

	n     int
	candA []int32
	candB []int32
	costs []float64

	// Base term vector of the committed state: pipeline-edge terms in stage
	// order followed by the valid pairs' terms in declaration order (+0.0
	// for infinite terms). pairSlot maps pair index → term slot (-1 when the
	// pair is invalid). gen is the Scorer generation the snapshot belongs to.
	// pfx[i] is the running sum of base[0..i-1] in the scalar resum order —
	// the exact partial-sum sequence the scalar accumulator passes through.
	// Every slot a candidate dirties is ≥ its d0 = max(0, min(x,y)-1)
	// (pipeline slots x-1..y are; pair slots start at pp-1), so the sum can
	// start from pfx[d0] bit-exactly and skip the clean prefix.
	//
	// lane is the single shared candidate term vector, kept equal to base
	// between candidates: an evaluation writes only its dirty slots (the
	// patched list), sums lane[d0:] in the scalar resum order, then restores
	// the patched slots from base — no per-candidate O(nterm) copy and no
	// second sum pass over stored lanes.
	nterm    int
	pairSlot []int32
	base     []float64
	pfx      []float64
	lane     []float64
	patched  []int32
	gen      int64

	// anchorIdx caches the dense die index of every stage anchor of the
	// committed state, so a candidate's route masks are pure arena offsets
	// with no per-candidate coordinate lookups.
	anchorIdx []int32

	// pairList holds the valid pair indices; pairMask holds each valid
	// pair's candidate paths as link bitmasks (nw words per path, two paths
	// per pair), rebuilt from the committed pair paths on every base sync.
	// With the candidate's occupancy-after word vector, an unmoved pair's γ
	// is a flat AND+popcount over its mask — no per-link probing. linkPB is
	// the transpose: per link, an npw-word bitmask of the pairs whose
	// candidate paths cross it, so the pairs affected by a candidate's
	// occupancy flips accumulate as a few OR operations.
	pairList []int32
	pairMask []uint64
	nw       int
	linkPB   []uint64
	npw      int
	affW     []uint64

	// Word-parallel edge-delta state. Each pipeline edge's committed route
	// and candidate route are interned link bitmasks, so a candidate's whole
	// occupancy edit reduces to a few per-word operations: net removal and
	// addition words with same-edge reroute overlap cancelled by mask
	// AND-NOT — the word-level form of prefix/suffix trimming. occOne is the
	// committed "multiplicity exactly one" word vector, which turns
	// zero-crossing detection into (rem&occOne)|(add&^occ) for every link
	// outside the overlap plane — the links touched by two or more edges,
	// resolved exactly by probing the edge masks for a per-link net delta.
	// maskArena is the mesh's flat interned route-mask store (2·nw words per
	// ordered die pair: XY mask then YX mask, zero when the route is
	// straight); nDies its row stride. edgeOff[s] is the arena offset of
	// pipeline edge s's committed route mask. Hop counts are popcounts of
	// the mask words the evaluation loads anyway, so no hop or path-count
	// tables are touched per candidate.
	maskArena []uint64
	nDies     int
	edgeOff   []int32
	pipeVolV  []float64 // dense pipeVol(s) per edge, same values as the Scorer's
	occOne    []uint64  // shared view of the Scorer's vector
	// remA/addA accumulate the candidate's net removal/addition planes and
	// ovA the overlap plane. They are struct scratch rather than locals
	// purely to avoid duffzero of full maskWStack-wide arrays per candidate
	// — they are zeroed explicitly up to the mesh's word count only.
	remA [maskWStack]uint64
	addA [maskWStack]uint64
	ovA  [maskWStack]uint64
	// eoP/enP are the per-dirty-edge removal/addition planes backing the
	// overlap probes. Struct scratch for the same reason: a local
	// [4][maskWStack]uint64 pair costs a duffzero per candidate, while only
	// [0:ne][0:nw] is ever written then read.
	eoP [4][maskWStack]uint64
	enP [4][maskWStack]uint64

	// Per-candidate scratch: occAfter is the committed occupancy word vector
	// with the candidate's flipped links toggled; movedEpoch marks the pairs
	// a candidate already re-derived, reused across candidates through epoch
	// stamping (no clearing passes).
	epoch      int32
	occAfter   []uint64
	movedEpoch []int32
}

// NewScorerBatch returns a batch evaluator of capacity k over sc's
// committed state. The batch observes sc through its generation counter:
// any commit (Apply, Reset) — including the batch's own Commit — refreshes
// the base snapshot on the next Evaluate. It panics unless sc's mesh has
// interned routes and every anchor of sc is on the mesh.
func NewScorerBatch(sc *Scorer, k int) *ScorerBatch {
	arena := sc.m.InternedMaskArena()
	if arena == nil {
		panic("placement: ScorerBatch needs a mesh with interned routes")
	}
	for _, a := range sc.anchors {
		if sc.m.DieIndex(a) < 0 {
			panic("placement: ScorerBatch anchor off the mesh")
		}
	}
	if k < 1 {
		k = 1
	}
	return &ScorerBatch{
		sc:        sc,
		kap:       k,
		candA:     make([]int32, 0, k),
		candB:     make([]int32, 0, k),
		costs:     make([]float64, k),
		gen:       sc.gen - 1, // force a base sync on first Evaluate
		maskArena: arena,
		nDies:     sc.m.Dies(),
		nw:        len(sc.occ.Words()),
	}
}

// Cap returns the candidate capacity K.
func (b *ScorerBatch) Cap() int { return b.kap }

// Len returns the number of proposed candidates.
func (b *ScorerBatch) Len() int { return b.n }

// Reset discards all proposed candidates without touching the Scorer.
func (b *ScorerBatch) Reset() {
	b.n = 0
	b.candA = b.candA[:0]
	b.candB = b.candB[:0]
}

// Propose queues the swap of stages x and y as a batch candidate and
// returns its index. Candidates may overlap arbitrarily: each is evaluated
// independently against the committed state, exactly as a sequential
// SwapDelta from that state would be.
func (b *ScorerBatch) Propose(x, y int) int {
	if b.sc.pending {
		panic("placement: ScorerBatch.Propose with a pending swap on the Scorer")
	}
	if x == y {
		panic("placement: ScorerBatch.Propose of a degenerate swap")
	}
	if b.n == b.kap {
		panic("placement: ScorerBatch full")
	}
	b.candA = append(b.candA, int32(x))
	b.candB = append(b.candB, int32(y))
	b.n++
	return b.n - 1
}

// Evaluate computes the cost of every proposed candidate's assignment and
// returns them indexed by Propose order. The returned slice is reused
// across calls. Each cost is bit-identical to the newCost a sequential
// SwapDelta of that candidate would return from the committed state; the
// committed state itself is not touched.
func (b *ScorerBatch) Evaluate() []float64 {
	if b.sc.pending {
		panic("placement: ScorerBatch.Evaluate with a pending swap on the Scorer")
	}
	if b.gen != b.sc.gen {
		b.syncBase()
	}
	costs := b.costs[:b.n]
	for k := 0; k < b.n; k++ {
		costs[k] = b.candCost(k)
	}
	return costs
}

// EvaluateOne computes the cost of candidate i alone — the same value
// Evaluate()[i] would hold, under the same bit-identity contract — without
// evaluating any other candidate. The speculative annealer replays
// Metropolis decisions in draw order and commits at the first acceptance,
// so evaluating lazily in replay order means candidates past the
// acceptance point are never evaluated at all.
func (b *ScorerBatch) EvaluateOne(i int) float64 {
	if b.sc.pending {
		panic("placement: ScorerBatch.EvaluateOne with a pending swap on the Scorer")
	}
	if i < 0 || i >= b.n {
		panic("placement: ScorerBatch.EvaluateOne index out of range")
	}
	if b.gen != b.sc.gen {
		b.syncBase()
	}
	return b.candCost(i)
}

// Commit applies candidate i to the Scorer's committed state (advancing its
// generation, which invalidates the batch base) and discards the batch. It
// returns the committed cost, re-derived through the scalar SwapDelta path
// so the Scorer's own incremental invariants are maintained normally. When
// the base was in sync with the pre-commit state, the snapshot is refreshed
// incrementally — a swap moves two anchors, four edges and the pairs
// attached to them; everything structural is unchanged.
func (b *ScorerBatch) Commit(i int) float64 {
	if i < 0 || i >= b.n {
		panic("placement: ScorerBatch.Commit index out of range")
	}
	x, y := int(b.candA[i]), int(b.candB[i])
	wasSynced := b.gen == b.sc.gen
	c, _ := b.sc.SwapDelta(x, y)
	b.sc.Apply()
	if wasSynced {
		b.syncAfterSwap(x, y)
	}
	b.Reset()
	return c
}

// syncAfterSwap incrementally refreshes the base snapshot after the batch's
// own Commit applied swap (x, y). The term layout (pairValid depends only on
// stage indices, which a swap never changes), the plane sizes and the mesh
// tables are untouched; what moved is the two anchor indices, the routes and
// masks of the ≤4 adjacent edges, the paths of the pairs attached to x or y,
// and potentially any term value (γ ripples) — so only those are rebuilt.
func (b *ScorerBatch) syncAfterSwap(x, y int) {
	sc := b.sc
	b.anchorIdx[x], b.anchorIdx[y] = b.anchorIdx[y], b.anchorIdx[x]
	for _, s := range [4]int{x - 1, x, y - 1, y} {
		if s < 0 || s+1 >= sc.pp {
			continue
		}
		b.edgeOff[s] = int32((int(b.anchorIdx[s])*b.nDies + int(b.anchorIdx[s+1])) * 2 * b.nw)
	}
	for _, pi := range sc.stagePairs[x] {
		b.refreshPairMask(int(pi))
	}
	for _, pi := range sc.stagePairs[y] {
		if pr := &sc.w.Pairs[pi]; pr.Sender == x || pr.Helper == x {
			continue // already refreshed via stagePairs[x]
		}
		b.refreshPairMask(int(pi))
	}
	for s := 0; s+1 < sc.pp; s++ {
		b.base[s] = sc.pipeTerm[s]
	}
	for _, pi := range b.pairList {
		if t := sc.pairTerm[pi]; !math.IsInf(t, 1) {
			b.base[b.pairSlot[pi]] = t
		} else {
			b.base[b.pairSlot[pi]] = 0
		}
	}
	b.pfx[0] = 0
	for i := 0; i < b.nterm; i++ {
		b.pfx[i+1] = b.pfx[i] + b.base[i]
	}
	copy(b.lane, b.base)
	b.gen = sc.gen
}

// refreshPairMask re-derives one pair's path masks and its bits in the
// link→pair transpose after the pair was re-attached: the old bits are
// cleared by walking the stale masks, then both rebuilt from the fresh
// committed paths.
func (b *ScorerBatch) refreshPairMask(pi int) {
	if b.pairSlot[pi] < 0 {
		return
	}
	sc := b.sc
	nw, npw := b.nw, b.npw
	pw, pb := pi>>6, uint64(1)<<(uint32(pi)&63)
	for k := 0; k < 2; k++ {
		mask := b.pairMask[(2*pi+k)*nw : (2*pi+k+1)*nw]
		for w, mw := range mask {
			for mw != 0 {
				id := w<<6 + bits.TrailingZeros64(mw)
				mw &= mw - 1
				b.linkPB[id*npw+pw] &^= pb
			}
			mask[w] = 0
		}
	}
	for k := int8(0); k < sc.pairN[pi]; k++ {
		mask := b.pairMask[(2*pi+int(k))*nw : (2*pi+int(k)+1)*nw]
		for _, id := range sc.pairIDs[pi][k] {
			mask[id>>6] |= 1 << (uint32(id) & 63)
			b.linkPB[int(id)*npw+pw] |= pb
		}
	}
}

// syncBase snapshots the committed Scorer's term vector and (re)sizes the
// dirty scratch planes for the current workload.
func (b *ScorerBatch) syncBase() {
	sc := b.sc
	np := len(sc.w.Pairs)
	if cap(b.pairSlot) < np {
		b.pairSlot = make([]int32, np)
		b.movedEpoch = make([]int32, np)
		b.pairList = make([]int32, 0, np)
	}
	b.pairSlot = b.pairSlot[:np]
	b.movedEpoch = b.movedEpoch[:np]

	nterm := sc.pp - 1
	if nterm < 0 {
		nterm = 0
	}
	b.pairList = b.pairList[:0]
	for i := 0; i < np; i++ {
		if sc.pairValid[i] {
			b.pairSlot[i] = int32(nterm)
			b.pairList = append(b.pairList, int32(i))
			nterm++
		} else {
			b.pairSlot[i] = -1
		}
	}
	b.nterm = nterm
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
	for s := 0; s+1 < sc.pp; s++ {
		b.base[s] = sc.pipeTerm[s]
	}
	for i := 0; i < np; i++ {
		if slot := b.pairSlot[i]; slot >= 0 {
			if t := sc.pairTerm[i]; !math.IsInf(t, 1) {
				b.base[slot] = t
			} else {
				b.base[slot] = 0
			}
		}
	}
	b.pfx[0] = 0
	for i := 0; i < nterm; i++ {
		b.pfx[i+1] = b.pfx[i] + b.base[i]
	}
	copy(b.lane, b.base)

	// Pair path masks of the committed state, one nw-word mask per
	// candidate path. The occupancy word vector and the multiset are kept
	// in lock-step by the Scorer, so the mask count against occAfter equals
	// the maintained γ counter plus the candidate's crossings — exactly.
	nw := b.nw
	need := 2 * np * nw
	if cap(b.pairMask) < need {
		b.pairMask = make([]uint64, need)
	}
	b.pairMask = b.pairMask[:need]
	for i := range b.pairMask {
		b.pairMask[i] = 0
	}
	npw := (np + 63) / 64
	if npw == 0 {
		npw = 1
	}
	b.npw = npw
	nl := len(sc.occCount)
	if cap(b.linkPB) < nl*npw {
		b.linkPB = make([]uint64, nl*npw)
	}
	b.linkPB = b.linkPB[:nl*npw]
	for i := range b.linkPB {
		b.linkPB[i] = 0
	}
	if cap(b.affW) < npw {
		b.affW = make([]uint64, npw)
	}
	b.affW = b.affW[:npw]
	for _, pi := range b.pairList {
		pw, pb := int(pi)>>6, uint64(1)<<(uint32(pi)&63)
		for k := int8(0); k < sc.pairN[pi]; k++ {
			mask := b.pairMask[(2*int(pi)+int(k))*nw : (2*int(pi)+int(k)+1)*nw]
			for _, id := range sc.pairIDs[pi][k] {
				mask[id>>6] |= 1 << (uint32(id) & 63)
				b.linkPB[int(id)*npw+pw] |= pb
			}
		}
	}
	if cap(b.occAfter) < nw {
		b.occAfter = make([]uint64, nw)
	}
	b.occAfter = b.occAfter[:nw]

	// The committed multiplicity-one words for the word-parallel
	// zero-crossing test are maintained by the Scorer itself — share them.
	b.occOne = sc.occOne
	pe := sc.pp - 1
	if pe < 0 {
		pe = 0
	}
	if cap(b.edgeOff) < pe {
		b.edgeOff = make([]int32, pe)
		b.pipeVolV = make([]float64, pe)
	}
	b.edgeOff = b.edgeOff[:pe]
	b.pipeVolV = b.pipeVolV[:pe]
	for s := 0; s < pe; s++ {
		b.pipeVolV[s] = sc.pipeVol(s)
		b.edgeOff[s] = int32((int(b.anchorIdx[s])*b.nDies + int(b.anchorIdx[s+1])) * 2 * nw)
	}
	b.gen = sc.gen
}

// nextEpoch advances the stamp, re-zeroing the stamp plane on the (in
// practice unreachable) int32 wraparound.
func (b *ScorerBatch) nextEpoch() int32 {
	if b.epoch == math.MaxInt32 {
		for i := range b.movedEpoch {
			b.movedEpoch[i] = 0
		}
		b.epoch = 0
	}
	b.epoch++
	return b.epoch
}

// maskWStack is the word width of the fixed-size delta planes of the
// word-parallel evaluation — 768 links. A mesh of n dies has fewer than 4n
// directed links, so every mesh within the interning bound of 160 dies fits
// (the 12×12 scale wafer has 528 links). The accumulator planes are zeroed
// per candidate only up to the mesh's word count, so the headroom costs
// nothing on small meshes.
const maskWStack = 12

// sumRestore finishes a candidate: it sums the patched lane from pfx[d0] in
// the exact scalar resum order, then restores every patched slot to its base
// value, re-establishing the lane == base invariant for the next candidate.
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

// candCost evaluates candidate k word-parallel: per dirty edge, the committed
// and candidate routes are interned link bitmasks, and AND-NOT cancels their
// shared links (net delta zero — the word-level form of prefix/suffix
// trimming). A surviving removal or addition hits its link exactly once
// unless two different edges touch the same link; those links accumulate in
// the overlap plane ovW. Outside ovW all deltas are ±1, so a link flips
// down iff its committed multiplicity is exactly one and up iff it was
// unoccupied — two word operations against the occOne/occupancy vectors.
// The few ovW links (pipeline chains are locally collinear, so rerouted
// paths do retrace neighbouring edges) are resolved exactly by probing the
// edge masks for the link's net multiset delta.
func (b *ScorerBatch) candCost(k int) float64 {
	sc := b.sc
	x, y := int(b.candA[k]), int(b.candB[k])
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
	nDies := b.nDies
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
		e := (int(u)*nDies + int(v)) * (2 * nw)
		nm := arena[e : e+nw]
		oo := int(b.edgeOff[s])
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
	pipeVolV := b.pipeVolV
	for i := 0; i < ne; i++ {
		s := edges[i]
		lane[s] = float64(hops[i]) * pipeVolV[s]
		patched = append(patched, int32(s))
	}
	b.patched = patched

	// Zero crossings, reusing remA as the per-word flip vector: the ±1 word
	// formula outside the overlap plane, an exact per-link multiset probe
	// inside it.
	occW := sc.occ.Words()
	occOne := b.occOne
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
	ep := b.nextEpoch()
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
	b.finishCand(x, y, ep, occW, flipped)
	return b.sumRestore(d0)
}

// finishCand patches the candidate's pair terms: pairs with a moved endpoint
// re-derive their candidate paths against the virtual occupancy (exactly as
// the scalar attachPair does against the settled occupancy), then unmoved
// pairs with a candidate path through a flipped link re-derive their
// punished minimum as flat AND+popcount γ counts of their committed path
// masks against the occupancy-after words. A pair whose flips cancel
// recomputes the identical term (same γ, same expression — bit-equal to the
// base copy).
func (b *ScorerBatch) finishCand(x, y int, ep int32, occW []uint64, flipped bool) {
	sc := b.sc
	for _, pi := range sc.stagePairs[x] {
		b.movedPair(int(pi), x, y, ep, occW)
	}
	for _, pi := range sc.stagePairs[y] {
		b.movedPair(int(pi), x, y, ep, occW)
	}
	if flipped {
		nw := b.nw
		npw := b.npw
		affW := b.affW
		pairMask := b.pairMask
		for w := 0; w < npw; w++ {
			word := affW[w]
			for word != 0 {
				pi := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if b.movedEpoch[pi] == ep {
					continue
				}
				pr := &sc.w.Pairs[pi]
				best := math.Inf(1)
				for p := int8(0); p < sc.pairN[pi]; p++ {
					mask := pairMask[(2*pi+int(p))*nw : (2*pi+int(p)+1)*nw]
					g := 0
					for mw, ow := range mask {
						g += bits.OnesCount64(ow & occW[mw])
					}
					c := float64(len(sc.pairIDs[pi][p])) * pr.Bytes * (1 + float64(g))
					if c < best {
						best = c
					}
				}
				if math.IsInf(best, 1) {
					best = 0
				}
				slot := b.pairSlot[pi]
				b.lane[slot] = best
				b.patched = append(b.patched, slot)
			}
		}
	}
}

// movedPair recomputes the punished minimum of a pair whose endpoint
// anchors moved under the candidate swap: fresh candidate paths from the
// interned route masks, with γ counted against the candidate's
// occupancy-after words.
func (b *ScorerBatch) movedPair(pi, x, y int, ep int32, occW []uint64) {
	if b.movedEpoch[pi] == ep {
		return
	}
	b.movedEpoch[pi] = ep
	slot := b.pairSlot[pi]
	if slot < 0 {
		return
	}
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
	// One pass per path over the arena words yields both the hop count
	// (total popcount — each path link is one mask bit) and the contention
	// count γ (popcount against the occupancy words). The second slot is
	// all-zero exactly when no YX route was interned, which its popcount
	// detects for free; the u == v degenerate pair yields 0 either way, same
	// as the scalar walk.
	nw := b.nw
	arena := b.maskArena
	e := (int(u)*b.nDies + int(v)) * (2 * nw)
	h0, g0, h1, g1 := 0, 0, 0, 0
	for w := 0; w < nw; w++ {
		ow := occW[w]
		m0 := arena[e+w]
		h0 += bits.OnesCount64(m0)
		g0 += bits.OnesCount64(m0 & ow)
		m1 := arena[e+nw+w]
		h1 += bits.OnesCount64(m1)
		g1 += bits.OnesCount64(m1 & ow)
	}
	best := float64(h0) * pr.Bytes * (1 + float64(g0))
	if h1 > 0 {
		if c := float64(h1) * pr.Bytes * (1 + float64(g1)); c < best {
			best = c
		}
	}
	b.lane[slot] = best
}
