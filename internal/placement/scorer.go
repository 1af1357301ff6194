// Eq 2 swap pricing for the annealer on meshes with interned routes.
//
// A Scorer holds one committed stage→anchor assignment in the layout its
// pricing reads. SwapCost prices a proposed two-anchor swap against it
// without mutating it; Commit applies an accepted one. Routes are read as
// the mesh's interned link bitmasks (mesh.InternedMaskArena) at the
// committed anchors' offsets. The Scorer owns:
//
//   - the dense die index of every committed anchor, so a route mask is a
//     pure arena offset;
//   - the pipeline-path link multiset with its occupied and
//     multiplicity-exactly-one word vectors;
//   - a term vector (pipeline-edge terms in stage order, then the valid pair
//     terms in declaration order) with its running prefix sums, plus a lane
//     copy patched only at a proposal's dirty entries (≤4 pipeline edges,
//     moved pairs, γ-touched pairs);
//   - the link→pair transpose linkPB, so the pairs whose committed paths
//     cross a flipped link accumulate as a few OR operations.
//
// A proposal's rerouted pipeline edges become word planes of removed and
// added links, distilled into an occupancy-after word vector, so pair γ
// counts are flat AND+popcount loops over link masks. Every lane entry is
// either the committed term (bit-copied) or recomputed with the expression
// of the full evaluation, and the lane sum visits terms in its accumulation
// order, so SwapCost is bit-identical to EvalAnchors of the swapped anchor
// table — pinned by TestScorerMatchesFullEval. Invalid and infinite pair
// terms appear as +0.0 lane entries, an exact additive identity, so layout
// never perturbs a single float bit.
//
// SwapLowerBound bounds a swap's price from below in O(4 + moved pairs)
// work with no lane sum, so the annealer can reject most uphill proposals
// without pricing them. The Scorer also keeps the committed state's floor:
// its term vector with every valid pair's term at γ = 0 (hops·Bytes; both
// candidate routes are shortest, so the hop count is the anchors' Manhattan
// distance) and pipeline terms as priced, with floorSum its sum in slot
// order. The bound is floorSum, plus the dirty edges' new terms and the
// moved pairs' new floors, less the committed floors they replace, less a
// margin of 2^-29 of the magnitude (floorSum plus those new terms). It never
// exceeds SwapCost:
//
//   - for Bytes ≥ 0, pairCost's float64(h)·Bytes·(1+γ) never rounds below
//     float64(h)·Bytes, so every priced term is at least its floor term;
//   - SwapCost is a recursive sum of non-negative terms, whose rounding
//     error is below n·2^-53 of the sum (Higham, Accuracy and Stability of
//     Numerical Algorithms, §4.2), and the bound's own few operations add a
//     like amount; for any term count n below 2^20 both fit in the margin.
//
// The argument needs finite, non-negative volumes small enough that no term
// or sum overflows: every PipelineBytes entry and every valid pair's Bytes,
// and their total, at most MaxFloat64/4/((Cols+Rows)·(links+1)), and fewer
// than 2^20 terms. Outside that range it fails (a term that overflows is
// stored as +0, below its floor, for one), so SwapLowerBound returns −Inf.
//
// NewScorer panics unless the mesh has interned routes and every anchor is
// on the mesh; past the interning bound Optimize prices each proposal with a
// full evaluation instead.
package placement

import (
	"math"
	"math/bits"

	"repro/internal/mesh"
)

// Scorer prices two-anchor swaps of a committed stage→anchor assignment
// under Eq 2. It is not safe for concurrent use.
type Scorer struct {
	w  Workload
	pp int

	// anchorIdx holds the dense die index of every committed stage anchor.
	anchorIdx []int32

	// occCount is the committed pipeline-path link multiset; occW is its
	// boolean view (the γ-conflict set of Eq 2) and occOne the links of
	// multiplicity exactly one. Together they decide a zero crossing under a
	// ±1 delta with two word operations.
	occCount []int32
	occW     []uint64
	occOne   []uint64

	// stagePairs[s] lists the valid pairs with an endpoint at stage s: the
	// pairs a swap involving s moves.
	stagePairs [][]int32

	// Term vector of the committed state: pipeline-edge terms in stage
	// order followed by the valid pairs' terms in declaration order (+0.0
	// for infinite terms). pairSlot maps pair index → term slot (-1 when the
	// pair is invalid). pfx[i] is the running sum of base[0..i-1] in the
	// full evaluation's order — the exact partial-sum sequence its
	// accumulator passes through. Every slot a proposal dirties is ≥ its
	// d0 = max(0, min(x,y)-1) (pipeline slots x-1..y are; pair slots start
	// at pp-1), so the sum can start from pfx[d0] bit-exactly and skip the
	// clean prefix.
	//
	// lane is kept equal to base between proposals: a pricing writes only
	// its dirty slots (the patched list), sums lane[d0:] in order, then
	// restores the patched slots from base; a commit copies them into base.
	pairSlot []int32
	base     []float64
	pfx      []float64
	lane     []float64
	patched  []int32

	// linkPB holds, per link, an npw-word bitmask of the valid pairs whose
	// committed candidate paths cross it.
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
	// overlap probes, and Commit's multiset update. Struct scratch for the
	// same reason: only [0:ne][0:nw] is ever written then read.
	eoP [4][maskWStack]uint64
	enP [4][maskWStack]uint64

	// Per-proposal scratch: occAfter is the committed occupancy word vector
	// with the proposal's flipped links toggled; movedEpoch marks the pairs
	// a proposal already re-derived, reused across proposals through epoch
	// stamping (no clearing passes).
	epoch      int64
	occAfter   []uint64
	movedEpoch []int64

	// The Eq 2 floor of the committed state, kept by Commit (see the
	// package comment): floor is the term vector with every valid pair at
	// float64(hops)·Bytes and pipeline slots equal to base, and floorSum its
	// sum in slot order. dieXY holds every die index's coordinates, whose
	// Manhattan distance is a pair's hop count. boundOK records that the
	// workload's volumes are in the range where SwapLowerBound is proven.
	floor    []float64
	floorSum float64
	dieXY    [][2]int32
	boundOK  bool
}

// boundMargin is SwapLowerBound's rounding margin, relative to the
// magnitude of the bound's terms.
const boundMargin = 0x1p-29

// NewScorer builds a Scorer for the assignment: anchors[s] is the routing
// endpoint of stage s. It panics unless m has interned routes and every
// anchor is on m.
func NewScorer(m *mesh.Mesh, anchors []mesh.DieID, w Workload) *Scorer {
	arena := m.InternedMaskArena()
	if arena == nil {
		panic("placement: Scorer needs a mesh with interned routes")
	}
	pp, np, nl := len(anchors), len(w.Pairs), m.NumLinks()
	nw, npw := (nl+63)/64, (np+63)/64
	sc := &Scorer{
		w:          w,
		pp:         pp,
		anchorIdx:  make([]int32, pp),
		occCount:   make([]int32, nl),
		occW:       make([]uint64, nw),
		occOne:     make([]uint64, nw),
		stagePairs: make([][]int32, pp),
		pairSlot:   make([]int32, np),
		linkPB:     make([]uint64, nl*npw),
		npw:        npw,
		affW:       make([]uint64, npw),
		maskArena:  arena,
		nDies:      m.Dies(),
		nw:         nw,
		occAfter:   make([]uint64, nw),
		movedEpoch: make([]int64, np),
		dieXY:      make([][2]int32, m.Dies()),
	}
	for i := range sc.dieXY {
		d := m.DieAt(i)
		sc.dieXY[i] = [2]int32{int32(d.X), int32(d.Y)}
	}
	for s, a := range anchors {
		di := m.DieIndex(a)
		if di < 0 {
			panic("placement: Scorer anchor off the mesh")
		}
		sc.anchorIdx[s] = int32(di)
	}
	nterm := max(pp-1, 0)
	for i, pr := range w.Pairs {
		if pr.Sender < 0 || pr.Sender >= pp || pr.Helper < 0 || pr.Helper >= pp {
			sc.pairSlot[i] = -1
			continue
		}
		sc.pairSlot[i] = int32(nterm)
		nterm++
		sc.stagePairs[pr.Sender] = append(sc.stagePairs[pr.Sender], int32(i))
		if pr.Helper != pr.Sender {
			sc.stagePairs[pr.Helper] = append(sc.stagePairs[pr.Helper], int32(i))
		}
	}
	sc.base = make([]float64, nterm)
	sc.pfx = make([]float64, nterm+1)
	sc.lane = make([]float64, nterm)
	sc.patched = make([]int32, 0, nterm)
	sc.floor = make([]float64, nterm)
	sc.boundOK = boundVolumesOK(m, w, sc.pairSlot, nterm)

	for s := 0; s+1 < pp; s++ {
		e := sc.routeOff(sc.anchorIdx[s], sc.anchorIdx[s+1])
		xy := arena[e : e+nw]
		h := 0
		for _, word := range xy {
			h += bits.OnesCount64(word)
		}
		sc.base[s] = float64(h) * sc.pipeVol(s)
		sc.addLinks(xy, +1)
	}
	for i, slot := range sc.pairSlot {
		if slot >= 0 {
			pr := &w.Pairs[i]
			sc.base[slot] = sc.pairCost(pr.Bytes, sc.anchorIdx[pr.Sender], sc.anchorIdx[pr.Helper], sc.occW)
			sc.floor[slot] = sc.pairFloor(pr.Bytes, sc.anchorIdx[pr.Sender], sc.anchorIdx[pr.Helper])
			sc.markPair(i, true)
		}
	}
	for i, t := range sc.base {
		sc.pfx[i+1] = sc.pfx[i] + t
	}
	copy(sc.lane, sc.base)
	copy(sc.floor, sc.base[:max(pp-1, 0)])
	sc.sumFloor()
	return sc
}

// boundVolumesOK reports whether SwapLowerBound is proven for w on m:
// every PipelineBytes entry and every valid pair's Bytes is finite, ≥ 0
// and at most MaxFloat64/4/((Cols+Rows)·(links+1)), so is their total, and
// the term count is below 2^20. A term is at most hops·volume·(1+γ) with
// hops < Cols+Rows and γ ≤ links, so no term, sum or margin overflows.
func boundVolumesOK(m *mesh.Mesh, w Workload, pairSlot []int32, nterm int) bool {
	if nterm >= 1<<20 {
		return false
	}
	limit := math.MaxFloat64 / 4 / float64((m.Cols+m.Rows)*(m.NumLinks()+1))
	total := 0.0
	inRange := func(v float64) bool {
		total += v
		return v >= 0 && v <= limit // false for NaN
	}
	for _, v := range w.PipelineBytes {
		if !inRange(v) {
			return false
		}
	}
	for i, pr := range w.Pairs {
		if pairSlot[i] >= 0 && !inRange(pr.Bytes) {
			return false
		}
	}
	return total <= limit
}

// Cost returns the Eq 2 cost of the committed assignment — bit-identical to
// EvalAnchors of the same anchors.
func (sc *Scorer) Cost() float64 { return sc.pfx[len(sc.base)] }

// SwapCost returns the cost of the committed assignment with the anchors of
// stages x and y swapped, without touching the committed state.
func (sc *Scorer) SwapCost(x, y int) float64 {
	sc.check("SwapCost", x, y)
	d0, _ := sc.patch(x, y)
	return sc.sumRestore(d0)
}

// Commit applies the swap of stages x and y and returns the committed cost,
// the value SwapCost(x, y) returned before it. The swap is re-priced, its
// patched terms are written into the term vector, each dirty pipeline
// edge's net removal and addition planes are applied to the link multiset,
// the moved pairs' transpose bits are re-marked along their new routes, and
// the floor takes the new pipeline terms and the moved pairs' floors.
func (sc *Scorer) Commit(x, y int) float64 {
	sc.check("Commit", x, y)
	d0, ne := sc.patch(x, y)
	npipe := int32(sc.pp - 1)
	for _, s := range sc.patched {
		sc.base[s] = sc.lane[s]
		if s < npipe {
			sc.floor[s] = sc.lane[s]
		}
	}
	sc.patched = sc.patched[:0]
	for i := d0; i < len(sc.base); i++ {
		sc.pfx[i+1] = sc.pfx[i] + sc.base[i]
	}
	for i := 0; i < ne; i++ {
		sc.addLinks(sc.eoP[i][:sc.nw], -1)
		sc.addLinks(sc.enP[i][:sc.nw], +1)
	}
	sc.markMoved(x, y, false)
	ai := sc.anchorIdx
	ai[x], ai[y] = ai[y], ai[x]
	sc.markMoved(x, y, true)
	for _, st := range [2]int{x, y} {
		for _, pi := range sc.stagePairs[st] {
			pr := &sc.w.Pairs[pi]
			sc.floor[sc.pairSlot[pi]] = sc.pairFloor(pr.Bytes, ai[pr.Sender], ai[pr.Helper])
		}
	}
	sc.sumFloor()
	return sc.Cost()
}

// SwapLowerBound returns a lower bound on SwapCost(x, y), or −Inf when the
// workload's volumes are outside the range where the bound is proven (see
// the package comment). It reads the committed floor, re-derived at the ≤4
// dirty pipeline edges and the moved pairs, without touching the committed
// state or the lane.
func (sc *Scorer) SwapLowerBound(x, y int) float64 {
	sc.check("SwapLowerBound", x, y)
	if !sc.boundOK {
		return math.Inf(-1)
	}
	edges, ne := sc.dirtyEdges(x, y)
	lb, mag := sc.floorSum, sc.floorSum
	for _, s := range edges[:ne] {
		t := float64(sc.hops(sc.swapped(s, x, y), sc.swapped(s+1, x, y))) * sc.pipeVol(s)
		lb += t - sc.floor[s]
		mag += t
	}
	sc.epoch++
	ep := sc.epoch
	for _, st := range [2]int{x, y} {
		for _, pi := range sc.stagePairs[st] {
			if sc.movedEpoch[pi] == ep {
				continue
			}
			sc.movedEpoch[pi] = ep
			pr := &sc.w.Pairs[pi]
			f := sc.pairFloor(pr.Bytes, sc.swapped(pr.Sender, x, y), sc.swapped(pr.Helper, x, y))
			lb += f - sc.floor[sc.pairSlot[pi]]
			mag += f
		}
	}
	return lb - mag*boundMargin
}

// sumFloor recomputes floorSum in slot order.
func (sc *Scorer) sumFloor() {
	sum := 0.0
	for _, f := range sc.floor {
		sum += f
	}
	sc.floorSum = sum
}

// swapped returns the die index of stage s's anchor once the anchors of
// stages x and y are swapped.
func (sc *Scorer) swapped(s, x, y int) int32 {
	switch s {
	case x:
		return sc.anchorIdx[y]
	case y:
		return sc.anchorIdx[x]
	}
	return sc.anchorIdx[s]
}

// hops returns the Manhattan distance between die indices u and v: the
// length of every shortest route between them.
func (sc *Scorer) hops(u, v int32) int32 {
	a, b := sc.dieXY[u], sc.dieXY[v]
	dx, dy := a[0]-b[0], a[1]-b[1]
	return max(dx, -dx) + max(dy, -dy)
}

// pairFloor is a pair's term between die indices u and v at γ = 0, the
// least value pairCost can return for non-negative bytes.
func (sc *Scorer) pairFloor(bytes float64, u, v int32) float64 {
	return float64(sc.hops(u, v)) * bytes
}

// check guards the precondition shared by SwapCost, SwapLowerBound and
// Commit.
func (sc *Scorer) check(op string, x, y int) {
	if x == y {
		panic("placement: Scorer." + op + " of a degenerate swap")
	}
}

func (sc *Scorer) pipeVol(s int) float64 {
	if s < len(sc.w.PipelineBytes) {
		return sc.w.PipelineBytes[s]
	}
	return 0
}

// routeOff returns the arena offset of the route masks from die index u to
// die index v.
func (sc *Scorer) routeOff(u, v int32) int {
	return (int(u)*sc.nDies + int(v)) * (2 * sc.nw)
}

// addLinks adds d to the multiplicity of every link in the mask and keeps
// the occupied and multiplicity-one words in step.
func (sc *Scorer) addLinks(mask []uint64, d int32) {
	for w, word := range mask {
		for word != 0 {
			tz := bits.TrailingZeros64(word)
			word &= word - 1
			bit := uint64(1) << uint(tz)
			c := sc.occCount[w<<6+tz] + d
			sc.occCount[w<<6+tz] = c
			if c > 0 {
				sc.occW[w] |= bit
			} else {
				sc.occW[w] &^= bit
			}
			if c == 1 {
				sc.occOne[w] |= bit
			} else {
				sc.occOne[w] &^= bit
			}
		}
	}
}

// markMoved clears (on == false) or sets the transpose bits of the pairs
// attached to stages x and y along their committed routes. A pair attached
// at both is visited twice; both operations are idempotent.
func (sc *Scorer) markMoved(x, y int, on bool) {
	for _, pi := range sc.stagePairs[x] {
		sc.markPair(int(pi), on)
	}
	for _, pi := range sc.stagePairs[y] {
		sc.markPair(int(pi), on)
	}
}

// markPair clears or sets pair pi's bit on every link of its committed
// candidate routes, read from the interned XY and YX masks.
func (sc *Scorer) markPair(pi int, on bool) {
	pr := &sc.w.Pairs[pi]
	e := sc.routeOff(sc.anchorIdx[pr.Sender], sc.anchorIdx[pr.Helper])
	nw, npw := sc.nw, sc.npw
	pw, pb := pi>>6, uint64(1)<<(uint(pi)&63)
	for w := 0; w < nw; w++ {
		word := sc.maskArena[e+w] | sc.maskArena[e+nw+w]
		for word != 0 {
			i := (w<<6+bits.TrailingZeros64(word))*npw + pw
			word &= word - 1
			if on {
				sc.linkPB[i] |= pb
			} else {
				sc.linkPB[i] &^= pb
			}
		}
	}
}

// maskWStack is the word width of the fixed-size delta planes of the
// word-parallel pricing — 768 links. A mesh of n dies has fewer than 4n
// directed links, so every mesh within the interning bound of 160 dies fits
// (the 12×12 scale wafer has 528 links). The accumulator planes are zeroed
// per proposal only up to the mesh's word count, so the headroom costs
// nothing on small meshes.
const maskWStack = 12

// sumRestore finishes a proposal: it sums the patched lane from pfx[d0] in
// the full evaluation's order, then restores every patched slot to its base
// value, re-establishing the lane == base invariant for the next proposal.
func (sc *Scorer) sumRestore(d0 int) float64 {
	c := sc.pfx[d0]
	for _, v := range sc.lane[d0:] {
		c += v
	}
	for _, s := range sc.patched {
		sc.lane[s] = sc.base[s]
	}
	sc.patched = sc.patched[:0]
	return c
}

// dirtyEdges returns the ≤4 pipeline edges the swap of x and y reroutes,
// in the full evaluation's order (x-1, x, y-1, y, clamped and deduplicated
// — x ≠ y, so the only possible duplicates are y-1 == x and y == x-1).
func (sc *Scorer) dirtyEdges(x, y int) (edges [4]int, ne int) {
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
	return edges, ne
}

// patch prices the swap of x and y word-parallel into the lane and returns
// the first dirty slot d0 and the number ne of dirty pipeline edges, whose
// removal/addition planes it leaves in eoP/enP[0:ne]. Per dirty edge, the
// committed and proposed routes are interned link bitmasks, and AND-NOT
// cancels their shared links (net delta zero — the word-level form of
// prefix/suffix trimming). A surviving removal or addition hits its link
// exactly once unless two different edges touch the same link; those links
// accumulate in the overlap plane ovA. Outside ovA all deltas are ±1, so a
// link flips down iff its committed multiplicity is exactly one and up iff
// it was unoccupied — two word operations against occOne and occW. The few
// ovA links (pipeline chains are locally collinear, so rerouted paths do
// retrace neighbouring edges) are resolved exactly by probing the edge
// planes for the link's net multiset delta.
func (sc *Scorer) patch(x, y int) (d0, ne int) {
	ai := sc.anchorIdx

	edges, ne := sc.dirtyEdges(x, y)
	var hops [4]int

	nw := sc.nw
	arena := sc.maskArena
	remA, addA, ovA := &sc.remA, &sc.addA, &sc.ovA
	// Only [0:ne][0:nw] of the per-edge planes is written then read, so they
	// are never cleared; the first edge initialises the accumulator planes
	// (ne ≥ 1 whenever pp ≥ 2), so those are never cleared separately
	// either.
	eoP, enP := &sc.eoP, &sc.enP
	for i := 0; i < ne; i++ {
		s := edges[i]
		e := sc.routeOff(sc.swapped(s, x, y), sc.swapped(s+1, x, y))
		nm := arena[e : e+nw]
		oo := sc.routeOff(ai[s], ai[s+1])
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

	d0 = max(min(x, y)-1, 0)
	for i := 0; i < ne; i++ {
		s := edges[i]
		sc.lane[s] = float64(hops[i]) * sc.pipeVol(s)
		sc.patched = append(sc.patched, int32(s))
	}

	// Zero crossings, reusing remA as the per-word flip vector: the ±1 word
	// formula outside the overlap plane, an exact per-link multiset probe
	// inside it.
	occW := sc.occW
	var anyFlip uint64
	for w := 0; w < nw; w++ {
		f := ((remA[w] & sc.occOne[w]) | (addA[w] &^ occW[w])) &^ ovA[w]
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
			cnt := int(sc.occCount[w<<6+tz])
			if (cnt > 0) != (cnt+delta > 0) {
				f |= bit
			}
		}
		remA[w] = f
		anyFlip |= f
	}
	sc.epoch++
	ep := sc.epoch
	flipped := anyFlip != 0
	if flipped {
		copy(sc.occAfter, occW)
		npw := sc.npw
		affW := sc.affW
		linkPB := sc.linkPB
		if npw == 1 {
			// Common case (≤64 pairs): the affected-pair plane is one word.
			var aff uint64
			for w := 0; w < nw; w++ {
				f := remA[w]
				if f == 0 {
					continue
				}
				sc.occAfter[w] ^= f
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
				sc.occAfter[w] ^= f
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
		occW = sc.occAfter
	}
	sc.patchPairs(x, y, ep, occW, flipped)
	return d0, ne
}

// patchPairs patches the proposal's pair terms: pairs with a moved endpoint
// re-derive their punished minimum from the routes between their proposed
// anchors, then unmoved pairs with a committed path through a flipped link
// re-derive it from the routes between their committed anchors — both as
// flat AND+popcount γ counts against the occupancy-after words. A pair whose
// flips cancel recomputes the identical term (same γ, same expression —
// bit-equal to the base copy).
func (sc *Scorer) patchPairs(x, y int, ep int64, occW []uint64, flipped bool) {
	ai := sc.anchorIdx
	for _, pi := range sc.stagePairs[x] {
		sc.movedPair(int(pi), x, y, ep, occW)
	}
	for _, pi := range sc.stagePairs[y] {
		sc.movedPair(int(pi), x, y, ep, occW)
	}
	if !flipped {
		return
	}
	for w, word := range sc.affW {
		for word != 0 {
			pi := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if sc.movedEpoch[pi] == ep {
				continue
			}
			pr := &sc.w.Pairs[pi]
			slot := sc.pairSlot[pi]
			sc.lane[slot] = sc.pairCost(pr.Bytes, ai[pr.Sender], ai[pr.Helper], occW)
			sc.patched = append(sc.patched, slot)
		}
	}
}

// movedPair re-derives the term of a pair whose endpoint anchors move under
// the swap of x and y, once per proposal.
func (sc *Scorer) movedPair(pi, x, y int, ep int64, occW []uint64) {
	if sc.movedEpoch[pi] == ep {
		return
	}
	sc.movedEpoch[pi] = ep
	slot := sc.pairSlot[pi]
	sc.patched = append(sc.patched, slot)
	pr := &sc.w.Pairs[pi]
	sc.lane[slot] = sc.pairCost(pr.Bytes, sc.swapped(pr.Sender, x, y), sc.swapped(pr.Helper, x, y), occW)
}

// pairCost is a pair's lane term between die indices u and v: the minimum
// over its candidate routes of len·bytes·(1+γ), in candidate order, with γ
// counted against the occupancy words occW — +0.0 where the full
// evaluation's term would be infinite. One pass per route over the arena
// words yields both the hop count (total popcount — each route link is one
// mask bit) and γ. The YX slot is all-zero exactly when the pair has one
// route, which its popcount detects for free; u == v yields 0 either way,
// same as the full evaluation's empty route.
func (sc *Scorer) pairCost(bytes float64, u, v int32, occW []uint64) float64 {
	nw := sc.nw
	e := sc.routeOff(u, v)
	m0 := sc.maskArena[e : e+nw]
	m1 := sc.maskArena[e+nw : e+2*nw]
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
