// Package mesh models the wafer-level interconnect of the WATOS hardware
// template: a 2D mesh of dies joined by D2D links (Fig 3), with XY routing,
// shortest-path enumeration, the conflict factor γ of Eq 2, the mesh-switch
// hybrid topology of §VI-E, and the link/die fault model of §VI-D.
//
// Every die and directed link carries a stable small-integer ID assigned at
// New() (DieIndex/LinkIndex), fault-adjusted bandwidths live in a dense
// per-link table, and shortest paths are interned once per mesh so the hot
// path of the evaluator performs no per-call map operations or path
// allocations. Paths returned by XYPath/YXPath/ShortestPaths are shared,
// read-only slices — callers must not modify them.
//
// The fault injectors (InjectLinkFault, InjectDieFault,
// InjectRandomLinkFaults, InjectRandomDieFaults) are the only methods that
// change a Mesh after New, and sched.Search never calls them: the mesh a
// search builds stays exactly as New made it.
package mesh

import (
	"fmt"
	"math"

	"repro/internal/hw"
)

// DieID identifies a die by its (X, Y) grid coordinate.
type DieID struct{ X, Y int }

func (d DieID) String() string { return fmt.Sprintf("(%d,%d)", d.X, d.Y) }

// DieLess is the canonical (Y, X) total order on dies, shared by every
// consumer that must iterate deterministically (the evaluation runtime's
// bit-identical-reports guarantee depends on a single ordering). DieIndex
// enumerates dies in exactly this order.
func DieLess(a, b DieID) bool {
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// Link identifies a directed D2D link between two adjacent dies.
type Link struct{ From, To DieID }

// LinkLess is the canonical total order on links (From then To, DieLess
// order), for deterministic iteration. LinkIndex enumerates links in exactly
// this order, so ascending-index iteration over a dense link vector visits
// links in canonical order.
func LinkLess(a, b Link) bool {
	if a.From != b.From {
		return DieLess(a.From, b.From)
	}
	return DieLess(a.To, b.To)
}

func (l Link) String() string { return l.From.String() + "->" + l.To.String() }

// Reverse returns the opposite-direction link.
func (l Link) Reverse() Link { return Link{From: l.To, To: l.From} }

// maxInternedDies bounds the eager all-pairs path interning: beyond this the
// quadratic table would dominate memory, so paths are built per call (the
// legacy behaviour). Every wafer in the paper's design space is far below
// this bound.
const maxInternedDies = 160

// dirDelta enumerates the four mesh neighbours of a die in canonical DieLess
// order of the neighbour: up (Y-1), left (X-1), right (X+1), down (Y+1).
// Keeping this order is what makes LinkIndex ascend in LinkLess order.
var dirDelta = [4][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}

// pathEntry interns the routes of one ordered die pair, both as Link
// sequences and as dense link-ID sequences (the representation the Eq 2
// inner loops consume — no per-link coordinate math on the hot path).
type pathEntry struct {
	xy, yx []Link
	sp     [2][]Link
	spLen  int

	xyID, yxID []int32
	spID       [2][]int32
}

// Mesh is a wafer's interconnect state: topology, per-link bandwidth and
// fault status.
type Mesh struct {
	Cols, Rows int // die grid (X, Y)
	// LinkBandwidth is the healthy per-direction link bandwidth, B/s.
	LinkBandwidth float64
	// LinkLatency is the per-hop latency α.
	LinkLatency float64
	// Topology selects 2D mesh or mesh-switch routing.
	Topology hw.Topology
	// SwitchBandwidth is the aggregate switch bandwidth (mesh-switch).
	SwitchBandwidth float64
	// SwitchGroupCols partitions the columns into switch-attached groups
	// for the MeshSwitch topology (0 = whole mesh, no switch).
	SwitchGroupCols int

	nDies   int
	links   []Link  // canonical LinkLess order; LinkAt(i) = links[i]
	linkIdx []int32 // [dieIndex*4+dir] -> link ID, -1 when off-mesh

	effBW     []float64 // per-link effective bandwidth (fault-adjusted)
	deadDense []bool    // per-die dead flag

	linkFaults map[Link]float64 // degradation in [0,1]; 1 = dead
	dieFaults  map[DieID]float64
	deadDies   map[DieID]bool

	paths []pathEntry // interned all-pairs routes (nil above maxInternedDies)

	// Compact views of the interned ID routes, split out of the wide
	// pathEntry records so the placement inner loops — which perform one
	// random (ai, bi) lookup per re-routed pipeline edge — stride over
	// 24-byte slice headers instead of ~200-byte entries (a ~8× smaller
	// cache footprint on the hottest lookup of the annealer). spMaskTab
	// holds each shortest path additionally as a link bitmask sized
	// maskWords words, so γ conflict counts against an occupancy word
	// vector are a handful of AND+popcount operations instead of a
	// per-link loop; spHops caches the hop counts.
	// xyMaskTab/xyHops are the same bitmask view for the deterministic XY
	// route, letting a batch evaluator turn whole-path link-multiset edits
	// into a handful of word operations.
	xyIDTab   [][]int32
	xyMaskTab [][]uint64
	xyHops    []int16
	spIDTab   [][2][]int32
	spLens    []int8
	spMaskTab [][2][]uint64
	spHops    [][2]int16
	maskArena []uint64 // flat backing store of sp/xy masks, 2·maskWords per pair
	maskWords int

	sig string // topology+fault signature, rebuilt on fault injection
}

// New creates a mesh for the wafer configuration.
func New(w hw.WaferConfig) *Mesh {
	m := &Mesh{
		Cols:            w.DiesX,
		Rows:            w.DiesY,
		LinkBandwidth:   w.LinkBandwidth(),
		LinkLatency:     w.D2DLinkLatency,
		Topology:        w.Topology,
		SwitchBandwidth: w.SwitchBandwidth,
		linkFaults:      map[Link]float64{},
		dieFaults:       map[DieID]float64{},
		deadDies:        map[DieID]bool{},
	}
	if w.Topology == hw.MeshSwitch {
		// §VI-E: 48 dies as 12×2×2 — four 12-column strips of height 1,
		// modelled here as SwitchGroupCols columns per group.
		m.SwitchGroupCols = w.DiesX
	}
	m.buildTopology()
	m.internPaths()
	m.refreshFaultState()
	return m
}

// buildTopology assigns the dense die and link IDs.
func (m *Mesh) buildTopology() {
	m.nDies = m.Cols * m.Rows
	if m.nDies < 0 {
		m.nDies = 0
	}
	m.linkIdx = make([]int32, m.nDies*4)
	for i := range m.linkIdx {
		m.linkIdx[i] = -1
	}
	m.links = make([]Link, 0, 2*(m.Cols*(m.Rows-1)+m.Rows*(m.Cols-1)))
	for di := 0; di < m.nDies; di++ {
		d := m.DieAt(di)
		for dir, delta := range dirDelta {
			nb := DieID{X: d.X + delta[0], Y: d.Y + delta[1]}
			if m.Contains(nb) {
				m.linkIdx[di*4+dir] = int32(len(m.links))
				m.links = append(m.links, Link{From: d, To: nb})
			}
		}
	}
	m.effBW = make([]float64, len(m.links))
	m.deadDense = make([]bool, m.nDies)
}

// internPaths precomputes the XY/YX routes of every ordered die pair so the
// routing hot path returns shared slices instead of reallocating.
func (m *Mesh) internPaths() {
	if m.nDies > maxInternedDies {
		return
	}
	m.paths = make([]pathEntry, m.nDies*m.nDies)
	m.xyIDTab = make([][]int32, m.nDies*m.nDies)
	m.spIDTab = make([][2][]int32, m.nDies*m.nDies)
	m.spLens = make([]int8, m.nDies*m.nDies)
	m.maskWords = (len(m.links) + 63) / 64
	m.spMaskTab = make([][2][]uint64, m.nDies*m.nDies)
	m.spHops = make([][2]int16, m.nDies*m.nDies)
	m.xyMaskTab = make([][]uint64, m.nDies*m.nDies)
	m.xyHops = make([]int16, m.nDies*m.nDies)
	maskArena := make([]uint64, m.nDies*m.nDies*2*m.maskWords)
	m.maskArena = maskArena
	// The XY and YX routes of a pair have Hops(a, b) links each. Carve the
	// routes and their ID lists out of two arenas sized by the summed hop
	// count; every carved slice has cap == len, so a caller's append
	// reallocates instead of overwriting the next route.
	var hops int
	for ai := 0; ai < m.nDies; ai++ {
		for bi := 0; bi < m.nDies; bi++ {
			hops += m.Hops(m.DieAt(ai), m.DieAt(bi))
		}
	}
	linkArena := make([]Link, 0, 2*hops)
	idArena := make([]int32, 0, 2*hops)
	for ai := 0; ai < m.nDies; ai++ {
		a := m.DieAt(ai)
		for bi := 0; bi < m.nDies; bi++ {
			b := m.DieAt(bi)
			e := &m.paths[ai*m.nDies+bi]
			if a != b {
				from := len(linkArena)
				linkArena = appendXYPath(linkArena, a, b)
				e.xy = carve(linkArena, from)
				from = len(linkArena)
				linkArena = appendYXPath(linkArena, a, b)
				e.yx = carve(linkArena, from)
				from = len(idArena)
				idArena = m.appendPathIDs(idArena, e.xy)
				e.xyID = carve(idArena, from)
				from = len(idArena)
				idArena = m.appendPathIDs(idArena, e.yx)
				e.yxID = carve(idArena, from)
			}
			e.sp[0] = e.xy
			e.spID[0] = e.xyID
			e.spLen = 1
			if a.X != b.X && a.Y != b.Y {
				e.sp[1] = e.yx
				e.spID[1] = e.yxID
				e.spLen = 2
			}
			idx := ai*m.nDies + bi
			m.xyIDTab[idx] = e.xyID
			m.spIDTab[idx] = e.spID
			m.spLens[idx] = int8(e.spLen)
			for k := 0; k < e.spLen; k++ {
				mask := maskArena[(idx*2+k)*m.maskWords : (idx*2+k+1)*m.maskWords]
				for _, id := range e.spID[k] {
					mask[id>>6] |= 1 << (uint32(id) & 63)
				}
				m.spMaskTab[idx][k] = mask
				m.spHops[idx][k] = int16(len(e.spID[k]))
			}
			// Index 0 of sp is always the XY route, so the XY mask view
			// aliases the first shortest-path mask.
			m.xyMaskTab[idx] = m.spMaskTab[idx][0]
			m.xyHops[idx] = int16(len(e.xyID))
		}
	}
}

// carve returns arena[from:] with its capacity clipped to its length.
func carve[T any](arena []T, from int) []T { return arena[from:len(arena):len(arena)] }

// buildPathIDs maps a route to its dense link IDs. Every link of an
// on-mesh route has an ID, so the slice length equals the hop count.
func (m *Mesh) buildPathIDs(path []Link) []int32 {
	if len(path) == 0 {
		return nil
	}
	return m.appendPathIDs(make([]int32, 0, len(path)), path)
}

// appendPathIDs appends the dense link IDs of a route to ids.
func (m *Mesh) appendPathIDs(ids []int32, path []Link) []int32 {
	for _, l := range path {
		ids = append(ids, int32(m.LinkIndex(l)))
	}
	return ids
}

// refreshFaultState rebuilds the dense fault-derived tables and the mesh
// signature after a fault injection.
func (m *Mesh) refreshFaultState() {
	for i, l := range m.links {
		m.effBW[i] = m.effectiveLinkBandwidthSlow(l)
	}
	for di := 0; di < m.nDies; di++ {
		m.deadDense[di] = m.deadDies[m.DieAt(di)]
	}
	sig := fmt.Sprintf("%dx%d|%g|%g|%d|%g|%d",
		m.Cols, m.Rows, m.LinkBandwidth, m.LinkLatency, m.Topology, m.SwitchBandwidth, m.SwitchGroupCols)
	if fk := m.FaultKey(); fk != "" {
		sig += "|" + fk
	}
	m.sig = sig
}

// Signature returns a canonical fingerprint of everything that affects
// routing and link timing: grid shape, bandwidths, latency, topology and the
// current fault state. Two meshes with equal signatures produce identical
// collective plans, which is what lets the plan cache be shared across the
// fresh Mesh instances each Search call creates.
func (m *Mesh) Signature() string { return m.sig }

// Dies returns the total die count.
func (m *Mesh) Dies() int { return m.nDies }

// DieIndex returns the dense ID of a die — its rank in the canonical DieLess
// order — or -1 for coordinates off the mesh.
func (m *Mesh) DieIndex(d DieID) int {
	if !m.Contains(d) {
		return -1
	}
	return d.Y*m.Cols + d.X
}

// DieAt returns the die with dense ID i (the inverse of DieIndex).
func (m *Mesh) DieAt(i int) DieID { return DieID{X: i % m.Cols, Y: i / m.Cols} }

// NumLinks returns the number of directed mesh links.
func (m *Mesh) NumLinks() int { return len(m.links) }

// LinkAt returns the link with dense ID i (the inverse of LinkIndex). Links
// ascend in canonical LinkLess order.
func (m *Mesh) LinkAt(i int) Link { return m.links[i] }

// Links returns the shared canonical link table; callers must not modify it.
func (m *Mesh) Links() []Link { return m.links }

// LinkIndex returns the dense ID of a directed mesh link, or -1 when the
// link is not a unit-hop link of the mesh.
func (m *Mesh) LinkIndex(l Link) int {
	fi := m.DieIndex(l.From)
	if fi < 0 {
		return -1
	}
	dx, dy := l.To.X-l.From.X, l.To.Y-l.From.Y
	var dir int
	switch {
	case dx == 0 && dy == -1:
		dir = 0
	case dx == -1 && dy == 0:
		dir = 1
	case dx == 1 && dy == 0:
		dir = 2
	case dx == 0 && dy == 1:
		dir = 3
	default:
		return -1
	}
	return int(m.linkIdx[fi*4+dir])
}

// Contains reports whether the die coordinate is on the mesh.
func (m *Mesh) Contains(d DieID) bool {
	return d.X >= 0 && d.X < m.Cols && d.Y >= 0 && d.Y < m.Rows
}

// InSameGroup reports whether two dies share a switch group (always true on
// a pure 2D mesh).
func (m *Mesh) InSameGroup(a, b DieID) bool {
	if m.Topology != hw.MeshSwitch {
		return true
	}
	return a.Y == b.Y
}

// Hops returns the Manhattan distance between two dies.
func (m *Mesh) Hops(a, b DieID) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// buildXYPath allocates the dimension-ordered (X then Y) route.
func (m *Mesh) buildXYPath(a, b DieID) []Link {
	hops := m.Hops(a, b)
	if hops == 0 {
		return nil
	}
	return appendXYPath(make([]Link, 0, hops), a, b)
}

// appendXYPath appends the dimension-ordered route from a to b to path.
func appendXYPath(path []Link, a, b DieID) []Link {
	cur := a
	for cur.X != b.X {
		next := cur
		if b.X > cur.X {
			next.X++
		} else {
			next.X--
		}
		path = append(path, Link{From: cur, To: next})
		cur = next
	}
	for cur.Y != b.Y {
		next := cur
		if b.Y > cur.Y {
			next.Y++
		} else {
			next.Y--
		}
		path = append(path, Link{From: cur, To: next})
		cur = next
	}
	return path
}

// buildYXPath allocates the Y-then-X route.
func (m *Mesh) buildYXPath(a, b DieID) []Link {
	hops := m.Hops(a, b)
	if hops == 0 {
		return nil
	}
	return appendYXPath(make([]Link, 0, hops), a, b)
}

// appendYXPath appends the Y-then-X route from a to b to path.
func appendYXPath(path []Link, a, b DieID) []Link {
	mid := DieID{X: a.X, Y: b.Y}
	return appendXYPath(appendXYPath(path, a, mid), mid, b)
}

// pathAt returns the interned routes of an ordered pair, or nil when the
// pair is off the interning table.
func (m *Mesh) pathAt(a, b DieID) *pathEntry {
	if m.paths == nil {
		return nil
	}
	ai, bi := m.DieIndex(a), m.DieIndex(b)
	if ai < 0 || bi < 0 {
		return nil
	}
	return &m.paths[ai*m.nDies+bi]
}

// XYPath returns the dimension-ordered (X then Y) route between two dies as
// a sequence of links. The returned slice is shared — do not modify it.
func (m *Mesh) XYPath(a, b DieID) []Link {
	if e := m.pathAt(a, b); e != nil {
		return e.xy
	}
	return m.buildXYPath(a, b)
}

// YXPath returns the Y-then-X route. The returned slice is shared — do not
// modify it.
func (m *Mesh) YXPath(a, b DieID) []Link {
	if e := m.pathAt(a, b); e != nil {
		return e.yx
	}
	return m.buildYXPath(a, b)
}

// ShortestPaths returns up to two distinct minimal routes (XY and YX) for
// conflict-aware path selection; when multiple shortest paths exist the
// placement optimiser enumerates them (§IV-C-1). The returned slices are
// shared — do not modify them.
func (m *Mesh) ShortestPaths(a, b DieID) [][]Link {
	if e := m.pathAt(a, b); e != nil {
		return e.sp[:e.spLen]
	}
	xy := m.buildXYPath(a, b)
	if a.X == b.X || a.Y == b.Y {
		return [][]Link{xy}
	}
	return [][]Link{xy, m.buildYXPath(a, b)}
}

// XYPathIDs returns the dimension-ordered route as dense link IDs — the
// zero-coordinate-math representation of XYPath, in the same hop order.
// The returned slice is shared — do not modify it.
func (m *Mesh) XYPathIDs(a, b DieID) []int32 {
	if m.xyIDTab != nil {
		if ai, bi := m.DieIndex(a), m.DieIndex(b); ai >= 0 && bi >= 0 {
			return m.xyIDTab[ai*m.nDies+bi]
		}
	}
	return m.buildPathIDs(m.buildXYPath(a, b))
}

// ShortestPathIDs is ShortestPaths in dense link-ID form: the k-th returned
// slice is the ID sequence of the k-th ShortestPaths route. The returned
// slices are shared — do not modify them.
func (m *Mesh) ShortestPathIDs(a, b DieID) [][]int32 {
	if m.spIDTab != nil {
		if ai, bi := m.DieIndex(a), m.DieIndex(b); ai >= 0 && bi >= 0 {
			e := ai*m.nDies + bi
			return m.spIDTab[e][:m.spLens[e]]
		}
	}
	xy := m.buildPathIDs(m.buildXYPath(a, b))
	if a.X == b.X || a.Y == b.Y {
		return [][]int32{xy}
	}
	return [][]int32{xy, m.buildPathIDs(m.buildYXPath(a, b))}
}

// XYPathIDsAt is XYPathIDs addressed by dense die indices (DieIndex). On an
// interned mesh it is a single table load with no coordinate validation —
// the lookup shape of the batch swap evaluator, which resolves its anchors
// to die indices once per committed state instead of once per candidate.
func (m *Mesh) XYPathIDsAt(ai, bi int) []int32 {
	if m.xyIDTab != nil {
		return m.xyIDTab[ai*m.nDies+bi]
	}
	return m.buildPathIDs(m.buildXYPath(m.DieAt(ai), m.DieAt(bi)))
}

// XYPathMaskAt returns the interned XY route of a dense die index pair as a
// link bitmask (maskWords words, shared — do not modify) plus its hop count.
// mask is nil when the mesh is beyond the interning bound — callers fall
// back to the ID form. The mask words are sized identically to LinkSet
// words, so whole-path occupancy edits are per-word OR/AND-NOT operations.
func (m *Mesh) XYPathMaskAt(ai, bi int) (mask []uint64, hops int16) {
	if m.xyMaskTab == nil {
		return nil, 0
	}
	e := ai*m.nDies + bi
	return m.xyMaskTab[e], m.xyHops[e]
}

// InternedMaskWords returns the per-mask word count of the interned path
// bitmasks, or 0 when the mesh is beyond the interning bound.
func (m *Mesh) InternedMaskWords() int {
	if m.xyMaskTab == nil {
		return 0
	}
	return m.maskWords
}

// InternedMaskArena exposes the flat backing store of the interned path
// masks for batch evaluators that index it per candidate with computed
// offsets: for the ordered dense die pair e = ai*nDies + bi and
// w = InternedMaskWords, words [e·2w, e·2w+w) hold the XY (first shortest)
// path mask and [e·2w+w, e·2w+2w) the second shortest path mask — all-zero
// when the route is straight, so a path's existence and its hop count both
// fall out of popcounts over words the γ count loads anyway. Shared — do
// not modify; nil beyond the interning bound.
func (m *Mesh) InternedMaskArena() []uint64 { return m.maskArena }

// NumDies returns the dense die index bound (Cols·Rows).
func (m *Mesh) NumDies() int { return m.nDies }

// ShortestPathMasksAt returns the interned shortest paths of a dense die
// index pair as link bitmasks (maskWords words per mask, shared — do not
// modify) plus their hop counts; n is the number of paths. n == 0 when the
// mesh is beyond the interning bound — callers fall back to the ID form.
// γ of path k against an occupancy word vector occ is then
// Σ_w popcount(masks[k][w] & occ[w]).
func (m *Mesh) ShortestPathMasksAt(ai, bi int) (masks [2][]uint64, hops [2]int16, n int) {
	if m.spMaskTab == nil {
		return masks, hops, 0
	}
	e := ai*m.nDies + bi
	return m.spMaskTab[e], m.spHops[e], int(m.spLens[e])
}

// ShortestPathIDsAt is ShortestPathIDs addressed by dense die indices.
func (m *Mesh) ShortestPathIDsAt(ai, bi int) [][]int32 {
	if m.spIDTab != nil {
		e := ai*m.nDies + bi
		return m.spIDTab[e][:m.spLens[e]]
	}
	return m.ShortestPathIDs(m.DieAt(ai), m.DieAt(bi))
}

// EffectiveLinkBandwidth returns the link's bandwidth after fault
// degradation; zero for dead links or links touching dead dies.
func (m *Mesh) EffectiveLinkBandwidth(l Link) float64 {
	if i := m.LinkIndex(l); i >= 0 {
		return m.effBW[i]
	}
	return m.effectiveLinkBandwidthSlow(l)
}

// EffBW returns the effective bandwidth of the link with dense ID i.
func (m *Mesh) EffBW(i int) float64 { return m.effBW[i] }

// effectiveLinkBandwidthSlow computes the fault-adjusted bandwidth from the
// fault maps (the pre-dense code path, kept for off-mesh links and for
// rebuilding the dense table after fault injection).
func (m *Mesh) effectiveLinkBandwidthSlow(l Link) float64 {
	if m.deadDies[l.From] || m.deadDies[l.To] {
		return 0
	}
	deg := m.linkFaults[l] // direction-specific
	if deg >= 1 {
		return 0
	}
	return m.LinkBandwidth * (1 - deg)
}

// TransferTime returns the α–β time to move bytes along a path assuming the
// path's weakest effective link, without congestion from other transfers.
func (m *Mesh) TransferTime(path []Link, bytes float64) float64 {
	if len(path) == 0 {
		return 0
	}
	minBW := math.Inf(1)
	for _, l := range path {
		bw := m.EffectiveLinkBandwidth(l)
		if bw < minBW {
			minBW = bw
		}
	}
	if minBW <= 0 {
		return math.Inf(1)
	}
	return float64(len(path))*m.LinkLatency + bytes/minBW
}

// Conflicts returns the number of links shared between the path and the set
// of occupied links — the conflict factor γ of Eq 2.
func Conflicts(path []Link, occupied map[Link]bool) int {
	n := 0
	for _, l := range path {
		if occupied[l] {
			n++
		}
	}
	return n
}

// LinkSet is a dense bitset over the mesh's link IDs — the allocation-free
// replacement for map[Link]bool occupied-link bookkeeping on the Eq 2 hot
// path (placement search, memory allocation).
//
// A set can optionally record membership flips into a second set via
// TrackDirty; the incremental placement scorer uses this to know which
// links' occupancy changed across a swap so it only re-scores the Mem_pairs
// whose candidate paths cross a flipped link.
type LinkSet struct {
	bits  []uint64
	dirty *LinkSet
}

// NewLinkSet returns an empty set sized for the mesh's links.
func (m *Mesh) NewLinkSet() *LinkSet {
	return &LinkSet{bits: make([]uint64, (len(m.links)+63)/64)}
}

// TrackDirty directs the set to record every membership flip — an Add of an
// absent ID or a Remove of a present ID — into d, which must be sized for
// the same mesh. Pass nil to stop tracking. Clear bypasses tracking (it is
// a scratch reset, not a flip).
func (s *LinkSet) TrackDirty(d *LinkSet) { s.dirty = d }

// Add inserts a link ID; negative IDs (off-mesh links) are ignored.
func (s *LinkSet) Add(i int) {
	if i < 0 {
		return
	}
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.dirty != nil && s.bits[w]&b == 0 {
		s.dirty.bits[w] |= b
	}
	s.bits[w] |= b
}

// Remove deletes a link ID; negative IDs are ignored.
func (s *LinkSet) Remove(i int) {
	if i < 0 {
		return
	}
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if s.dirty != nil && s.bits[w]&b != 0 {
		s.dirty.bits[w] |= b
	}
	s.bits[w] &^= b
}

// Has reports membership of a link ID.
func (s *LinkSet) Has(i int) bool {
	return i >= 0 && s.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// HasID is Has for dense int32 path IDs, which are always on-mesh — it
// skips the negative-ID guard so batch evaluators probing many links per
// candidate (placement.ScorerBatch) stay on the two-instruction path.
func (s *LinkSet) HasID(id int32) bool {
	return s.bits[id>>6]&(1<<(uint32(id)&63)) != 0
}

// Any reports whether the set holds at least one ID.
func (s *LinkSet) Any() bool {
	for _, w := range s.bits {
		if w != 0 {
			return true
		}
	}
	return false
}

// Words exposes the underlying bit words (shared, read-only) so callers can
// intersect link masks without per-bit Has calls.
func (s *LinkSet) Words() []uint64 { return s.bits }

// CountIn returns how many of the given link IDs are members — the γ
// conflict count of a dense ID path against an occupied set (the ID
// counterpart of Mesh.PathConflicts).
func (s *LinkSet) CountIn(ids []int32) int {
	n := 0
	for _, id := range ids {
		if s.bits[id>>6]&(1<<(uint32(id)&63)) != 0 {
			n++
		}
	}
	return n
}

// Clear empties the set in place (scratch reuse). Flips are not recorded
// into a TrackDirty target.
func (s *LinkSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

// AddPath inserts every link of the path.
func (m *Mesh) AddPath(s *LinkSet, path []Link) {
	for _, l := range path {
		s.Add(m.LinkIndex(l))
	}
}

// PathConflicts returns the γ conflict count of a path against the occupied
// set — the LinkSet counterpart of Conflicts.
func (m *Mesh) PathConflicts(path []Link, occupied *LinkSet) int {
	n := 0
	for _, l := range path {
		if occupied.Has(m.LinkIndex(l)) {
			n++
		}
	}
	return n
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
