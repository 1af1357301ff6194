// Package mesh models the wafer-level interconnect of the WATOS hardware
// template: a 2D mesh of dies joined by D2D links (Fig 3), with XY routing,
// shortest-path enumeration, the conflict factor γ of Eq 2, the mesh-switch
// hybrid topology of §VI-E, and the link/die fault model of §VI-D.
//
// Every die and directed link carries a stable small-integer ID assigned at
// New() (DieIndex/LinkIndex), fault-adjusted bandwidths live in a dense
// per-link table, and routes are sequences of link IDs. On a mesh of up to
// maxInternedDies dies, New interns every ordered pair's shortest routes
// once, as link-ID lists (XYPathIDs, ShortestPathIDs) and as link bitmasks
// (InternedMaskArena), so the evaluator's hot path performs no per-call map
// operations or route allocations; interned routes are shared, read-only
// slices — callers must not modify them. Past the bound, routes are built
// per call and InternedMaskArena is nil, so placement's annealer prices each
// proposal with a full Eq 2 evaluation instead of its Scorer.
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

// maxInternedDies bounds the eager all-pairs route interning, whose tables
// grow with the square of the die count. Every wafer in the paper's design
// space is far below it. Past it, XYPathIDs and ShortestPathIDs build each
// route per call, InternedMaskArena is nil, and placement's annealer prices
// each proposal with a full Eq 2 evaluation instead of the Scorer, which
// reads the masks.
const maxInternedDies = 160

// dirDelta enumerates the four mesh neighbours of a die in canonical DieLess
// order of the neighbour: up (Y-1), left (X-1), right (X+1), down (Y+1).
// Keeping this order is what makes LinkIndex ascend in LinkLess order.
var dirDelta = [4][2]int{{0, -1}, {-1, 0}, {1, 0}, {0, 1}}

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

	// routes is the interned route table (nil past maxInternedDies). For
	// the ordered die pair p = DieIndex(a)·Dies() + DieIndex(b),
	// routes[2p] is the XY route and routes[2p+1] the YX route when a and b
	// differ in both coordinates (nil otherwise), as link IDs in hop order.
	// All routes are carved from one arena with cap == len, so a caller's
	// append reallocates instead of overwriting the next route. maskArena
	// holds the same routes as link bitmasks in the same slots
	// (InternedMaskArena documents the layout).
	routes    [][]int32
	maskArena []uint64

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

// internPaths builds the route table and the mask arena, or leaves both nil
// past maxInternedDies.
func (m *Mesh) internPaths() {
	n := m.nDies
	if n > maxInternedDies {
		return
	}
	// An XY route has Hops(a, b) links, and so has a stored YX route: size
	// the ID arena by the sum.
	var total int
	for ai := 0; ai < n; ai++ {
		for bi := 0; bi < n; bi++ {
			a, b := m.DieAt(ai), m.DieAt(bi)
			total += m.Hops(a, b)
			if a.X != b.X && a.Y != b.Y {
				total += m.Hops(a, b)
			}
		}
	}
	arena := make([]int32, 0, total)
	m.routes = make([][]int32, 2*n*n)
	w := (len(m.links) + 63) / 64
	m.maskArena = make([]uint64, 2*n*n*w)
	for ai := 0; ai < n; ai++ {
		for bi := 0; bi < n; bi++ {
			a, b := m.DieAt(ai), m.DieAt(bi)
			if a == b {
				continue
			}
			p := 2 * (ai*n + bi)
			from := len(arena)
			arena = m.appendXYIDs(arena, a, b)
			m.routes[p] = arena[from:len(arena):len(arena)]
			if a.X != b.X && a.Y != b.Y {
				from = len(arena)
				arena = m.appendYXIDs(arena, a, b)
				m.routes[p+1] = arena[from:len(arena):len(arena)]
			}
			for k := p; k < p+2; k++ {
				mask := m.maskArena[k*w : (k+1)*w]
				for _, id := range m.routes[k] {
					mask[id>>6] |= 1 << (uint32(id) & 63)
				}
			}
		}
	}
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

// appendXYIDs appends the link IDs of the dimension-ordered (X then Y)
// route from a to b. A hop off the mesh appends -1.
func (m *Mesh) appendXYIDs(ids []int32, a, b DieID) []int32 {
	for a != b {
		next := a
		switch {
		case a.X < b.X:
			next.X++
		case a.X > b.X:
			next.X--
		case a.Y < b.Y:
			next.Y++
		default:
			next.Y--
		}
		ids = append(ids, int32(m.LinkIndex(Link{From: a, To: next})))
		a = next
	}
	return ids
}

// appendYXIDs appends the link IDs of the Y-then-X route from a to b.
func (m *Mesh) appendYXIDs(ids []int32, a, b DieID) []int32 {
	mid := DieID{X: a.X, Y: b.Y}
	return m.appendXYIDs(m.appendXYIDs(ids, a, mid), mid, b)
}

// pairIndex returns the route-table index of the ordered pair, or -1 when
// the mesh is past the interning bound or a die is off the mesh.
func (m *Mesh) pairIndex(a, b DieID) int {
	ai, bi := m.DieIndex(a), m.DieIndex(b)
	if m.routes == nil || ai < 0 || bi < 0 {
		return -1
	}
	return ai*m.nDies + bi
}

// XYPathIDs returns the dimension-ordered (X then Y) route from a to b as
// dense link IDs in hop order. On an interned mesh the slice is shared — do
// not modify it.
func (m *Mesh) XYPathIDs(a, b DieID) []int32 {
	if p := m.pairIndex(a, b); p >= 0 {
		return m.routes[2*p]
	}
	return m.appendXYIDs(make([]int32, 0, m.Hops(a, b)), a, b)
}

// ShortestPathIDs returns the minimal routes from a to b that the
// conflict-aware path selection of §IV-C-1 chooses between, as dense link
// IDs: the XY route, then the YX route when a and b differ in both
// coordinates. On an interned mesh the slices are shared — do not modify
// them.
func (m *Mesh) ShortestPathIDs(a, b DieID) [][]int32 {
	n := 1
	if a.X != b.X && a.Y != b.Y {
		n = 2
	}
	if p := m.pairIndex(a, b); p >= 0 {
		return m.routes[2*p : 2*p+n : 2*p+n]
	}
	paths := [][]int32{m.XYPathIDs(a, b)}
	if n == 2 {
		paths = append(paths, m.appendYXIDs(make([]int32, 0, m.Hops(a, b)), a, b))
	}
	return paths
}

// InternedMaskArena exposes the interned routes as link bitmasks for batch
// evaluators that index it per candidate with computed offsets. Each mask
// has the w = (NumLinks()+63)/64 words of a LinkSet; for the ordered dense
// die pair p = ai·Dies() + bi, words [p·2w, p·2w+w) hold the XY route mask
// and [p·2w+w, p·2w+2w) the YX route mask — all-zero when the route is
// straight, so a route's existence and its hop count both fall out of
// popcounts over words the γ count loads anyway. Shared — do not modify;
// nil past the interning bound.
func (m *Mesh) InternedMaskArena() []uint64 { return m.maskArena }

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

// LinkSet is a dense bitset over the mesh's link IDs — the allocation-free
// replacement for map[Link]bool occupied-link bookkeeping in the full Eq 2
// evaluation and memory allocation.
type LinkSet struct {
	bits []uint64
}

// NewLinkSet returns an empty set sized for the mesh's links.
func (m *Mesh) NewLinkSet() *LinkSet {
	return &LinkSet{bits: make([]uint64, (len(m.links)+63)/64)}
}

// Add inserts a link ID; negative IDs (off-mesh links) are ignored.
func (s *LinkSet) Add(i int) {
	if i < 0 {
		return
	}
	s.bits[i>>6] |= 1 << (uint(i) & 63)
}

// Has reports membership of a link ID.
func (s *LinkSet) Has(i int) bool {
	return i >= 0 && s.bits[i>>6]&(1<<(uint(i)&63)) != 0
}

// CountIn returns how many of the given link IDs are members — the γ
// conflict count of a route against an occupied set.
func (s *LinkSet) CountIn(ids []int32) int {
	n := 0
	for _, id := range ids {
		if s.bits[id>>6]&(1<<(uint32(id)&63)) != 0 {
			n++
		}
	}
	return n
}

// Clear empties the set in place (scratch reuse).
func (s *LinkSet) Clear() {
	for i := range s.bits {
		s.bits[i] = 0
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
