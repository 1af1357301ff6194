// Package collective implements the communication algorithms WATOS uses on
// the wafer's 2D mesh (§IV-E-1, §VI-B): unidirectional and bidirectional
// ring all-reduce/all-gather, RingBiOdd for odd group sizes, 2D tensor
// parallelism (GSPMD-style), a TACOS-like topology-aware synthesised
// collective, and multitree broadcast/reduce.
//
// Costs follow the α–β model of Eq 1 applied per mesh link, with explicit
// per-link load accounting so ring embeddings that contend on physical
// links (or leave links idle, Fig 5b) are visible to the evaluator.
//
// Because a collective's step shape depends only on (mesh topology + fault
// state, group, algorithm) while its cost is affine in the payload, the
// expensive structural work — ring ordering, path routing, per-link chunk
// multiplicities — is factored into a Plan that is built once, cached in a
// process-wide store keyed by mesh signature, and merely scaled by the byte
// count on each call. Per-link traffic is reported as a dense LoadVector
// indexed by mesh.LinkIndex, with a lazy map adapter for reporting callers.
package collective

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/lru"
	"repro/internal/mesh"
)

// Algorithm selects the collective implementation.
type Algorithm int

const (
	// Ring is the classic unidirectional ring all-reduce.
	Ring Algorithm = iota
	// BiRing is the bidirectional ring (the default TP collective,
	// §IV-E-1), which halves the per-direction payload.
	BiRing
	// RingBiOdd supports odd group sizes (§VI-B).
	RingBiOdd
	// TwoD is GSPMD-style 2D tensor-parallel all-reduce: a row phase plus
	// a column phase with higher total volume.
	TwoD
	// TACOS is a topology-aware synthesised collective that exploits all
	// available links of the group's submesh.
	TACOS
	// Multitree uses edge-disjoint spanning trees (broadcast/reduce).
	Multitree
)

func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case BiRing:
		return "bi-ring"
	case RingBiOdd:
		return "ring-bi-odd"
	case TwoD:
		return "2d-tp"
	case TACOS:
		return "tacos"
	case Multitree:
		return "multitree"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// LoadVector is the dense per-link traffic of one collective: vec[i] is the
// bytes placed on the link with mesh.LinkIndex i. The map adapter is built
// lazily for callers that still want map[mesh.Link]float64 reporting.
type LoadVector struct {
	m       *mesh.Mesh
	vec     []float64
	mapOnce sync.Once
	asMap   map[mesh.Link]float64
}

func newLoadVector(m *mesh.Mesh) *LoadVector {
	return &LoadVector{m: m, vec: make([]float64, m.NumLinks())}
}

// Vec returns the dense per-link byte vector (shared; treat as read-only).
func (v *LoadVector) Vec() []float64 {
	if v == nil {
		return nil
	}
	return v.vec
}

// At returns the bytes on the link with dense ID i.
func (v *LoadVector) At(i int) float64 {
	if v == nil || i < 0 || i >= len(v.vec) {
		return 0
	}
	return v.vec[i]
}

// Map returns the loaded links as a map, built lazily on first use. Entries
// exist only for links carrying traffic.
func (v *LoadVector) Map() map[mesh.Link]float64 {
	if v == nil {
		return map[mesh.Link]float64{}
	}
	v.mapOnce.Do(func() {
		v.asMap = make(map[mesh.Link]float64)
		for i, b := range v.vec {
			if b != 0 {
				v.asMap[v.m.LinkAt(i)] = b
			}
		}
	})
	return v.asMap
}

// Result reports a collective's cost and its traffic footprint.
type Result struct {
	// Time is the completion time in seconds.
	Time float64
	// Steps is the number of communication rounds.
	Steps int
	// Loads is the dense per-link traffic vector.
	Loads *LoadVector
}

// LinkBytes returns the traffic placed on each directed mesh link as a map —
// the lazy adapter over the dense Loads vector for reporting callers.
func (r Result) LinkBytes() map[mesh.Link]float64 {
	return r.Loads.Map()
}

// MeanLinkUtilization returns mean utilisation over all physical links of
// the mesh given the collective's traffic (Fig 5b metric). Dense ascending
// link-ID iteration is the canonical LinkLess order, so the float
// accumulation is deterministic.
func (r Result) MeanLinkUtilization(m *mesh.Mesh) float64 {
	vec := r.Loads.Vec()
	var peak float64
	for _, b := range vec {
		if b > peak {
			peak = b
		}
	}
	if peak == 0 {
		return 0
	}
	var sum float64
	for _, b := range vec {
		sum += b / peak
	}
	total := 2 * (m.Cols*(m.Rows-1) + m.Rows*(m.Cols-1))
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// AllReduce returns the cost of an all-reduce of `bytes` (the full tensor
// size per die, before the 2(n−1)/n wire factor) across the group.
func AllReduce(m *mesh.Mesh, group []mesh.DieID, bytes float64, algo Algorithm) (Result, error) {
	n := len(group)
	if n == 0 {
		return Result{}, fmt.Errorf("collective: empty group")
	}
	if n == 1 || bytes <= 0 {
		return Result{Loads: &LoadVector{m: m}}, nil
	}
	switch algo {
	case Ring:
		if n%2 == 1 && n > 2 {
			return Result{}, fmt.Errorf("collective: naive ring cannot handle odd group size %d (use RingBiOdd or TACOS)", n)
		}
	case BiRing:
		if n%2 == 1 && n > 2 {
			return Result{}, fmt.Errorf("collective: bidirectional ring cannot handle odd group size %d (use RingBiOdd or TACOS)", n)
		}
	case RingBiOdd, TwoD, TACOS, Multitree:
	default:
		return Result{}, fmt.Errorf("collective: unknown algorithm %v", algo)
	}
	p := PlanFor(m, group, algo)
	r, err := p.Apply(m, bytes)
	if err != nil {
		return Result{}, err
	}
	switch algo {
	case RingBiOdd:
		// RingBiOdd tolerates odd sizes at a small efficiency cost: the
		// odd chunk pairing leaves one direction idle for one step.
		if n%2 == 1 {
			r.Time *= 1 + 1/float64(n)
		}
	case Multitree:
		// Tree reduce+broadcast moves 2·V over log-depth trees; slightly
		// worse than the synthesised schedule for large payloads.
		r.Time *= 1.1
	}
	return r, nil
}

// AllGather returns the cost of an all-gather where each die contributes
// bytes/n and ends with the full `bytes` tensor.
func AllGather(m *mesh.Mesh, group []mesh.DieID, bytes float64, algo Algorithm) (Result, error) {
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return Result{Loads: &LoadVector{m: m}}, nil
	}
	// Ring all-gather: n−1 steps of chunk size bytes/n — half of the
	// all-reduce schedule. Reuse the ring machinery with half the rounds.
	full, err := AllReduce(m, group, bytes, algo)
	if err != nil {
		return full, err
	}
	full.Time /= 2
	full.Steps = (full.Steps + 1) / 2
	for i := range full.Loads.vec {
		full.Loads.vec[i] /= 2
	}
	return full, nil
}

// ringOrder returns a boustrophedon (serpentine) ordering of the group,
// which embeds a ring with unit-hop edges on rectangular groups: even rows
// left→right, odd rows right→left.
func ringOrder(group []mesh.DieID) []mesh.DieID {
	out := append([]mesh.DieID(nil), group...)
	slices.SortFunc(out, func(a, b mesh.DieID) int {
		if a.Y != b.Y {
			return a.Y - b.Y
		}
		if a.Y%2 == 0 {
			return a.X - b.X
		}
		return b.X - a.X
	})
	return out
}

// planKind tags the structural family of a Plan.
type planKind uint8

const (
	kindRing planKind = iota
	kindTwoD
	kindTacos
)

// Plan is the precomputed structure of one collective on one (mesh, fault
// state, group): per-link unit-chunk multiplicities, step count, hop depth
// and bandwidth snapshots. A Plan is built once, cached process-wide, and
// scaled by the payload on each Apply — collective cost is affine in bytes.
// Plans are immutable and safe for concurrent use.
type Plan struct {
	kind  planKind
	n     int
	steps int
	err   error   // structural infeasibility (dead link, disconnection)
	alpha float64 // per-hop latency snapshot

	// ring family
	bidir   bool
	maxHops int
	linkIDs []int32   // ascending dense link IDs carrying ring traffic
	counts  []int32   // per-link chunk multiplicity per step
	bw      []float64 // effective bandwidth snapshot per entry

	// 2D TP: row-phase and column-phase sub-rings, in sorted key order
	rowPlans, colPlans []*Plan

	// TACOS
	linkBW   float64 // healthy per-link bandwidth
	minDeg   int
	tacosIDs []int32
}

// Err returns the plan's structural infeasibility, if any.
func (p *Plan) Err() error { return p.err }

// planCacheCapacity bounds the process-wide plan store. A plan is a few
// hundred bytes; distinct (mesh signature, group, algorithm) triples per
// process number in the hundreds for a full figure harness run.
const planCacheCapacity = 4096

var planCache = lru.New[*Plan](planCacheCapacity)

// PlanCacheStats reports the plan store's hit/miss counters.
func PlanCacheStats() lru.Stats { return planCache.Stats() }

// ResetPlanCache clears the plan store (cold-start benchmarks).
func ResetPlanCache() { planCache.Reset() }

// planFamily maps an algorithm to its structural family tag: RingBiOdd
// shares the bidirectional ring plan and Multitree shares the TACOS plan
// (their fixed multipliers are applied by AllReduce after scaling).
func planFamily(algo Algorithm) byte {
	switch algo {
	case Ring:
		return 'r'
	case BiRing, RingBiOdd:
		return 'b'
	case TwoD:
		return '2'
	default: // TACOS, Multitree
		return 't'
	}
}

// PlanFor returns the cached plan of the collective's structure on the
// mesh's current fault state, building and memoizing it on first use.
// Structural infeasibility (dead ring link, disconnected TACOS group) is
// carried inside the plan and surfaces from Apply.
func PlanFor(m *mesh.Mesh, group []mesh.DieID, algo Algorithm) *Plan {
	key := planKey(m, group, algo)
	if p, ok := planCache.Get(key); ok {
		return p
	}
	p := buildPlan(m, group, algo)
	planCache.Put(key, p)
	return p
}

// planKey fingerprints (mesh signature, group, algorithm family).
func planKey(m *mesh.Mesh, group []mesh.DieID, algo Algorithm) string {
	buf := make([]byte, 0, len(m.Signature())+3+6*len(group))
	buf = append(buf, m.Signature()...)
	buf = append(buf, '|', planFamily(algo), '|')
	for _, d := range group {
		buf = strconv.AppendInt(buf, int64(d.X), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(d.Y), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

func buildPlan(m *mesh.Mesh, group []mesh.DieID, algo Algorithm) *Plan {
	switch planFamily(algo) {
	case 'r':
		return buildRingPlan(m, group, false)
	case 'b':
		return buildRingPlan(m, group, true)
	case '2':
		return buildTwoDPlan(m, group)
	default:
		return buildTacosPlan(m, group)
	}
}

// Apply scales the plan by the payload: worst-link step time plus hop
// latency for rings, phase-max composition for 2D TP, bandwidth-bound time
// for TACOS. The per-link traffic is written into a fresh dense vector.
func (p *Plan) Apply(m *mesh.Mesh, bytes float64) (Result, error) {
	if p.err != nil {
		return Result{}, p.err
	}
	lv := newLoadVector(m)
	switch p.kind {
	case kindRing:
		t, err := p.ringEval(bytes, lv.vec)
		if err != nil {
			return Result{}, err
		}
		return Result{Time: t, Steps: p.steps, Loads: lv}, nil
	case kindTwoD:
		return p.twoDEval(bytes, lv)
	default:
		t := p.tacosEval(bytes, lv.vec)
		return Result{Time: t, Steps: p.steps, Loads: lv}, nil
	}
}

// repAdd returns chunk accumulated k times. Repeated addition is not the
// same float64 as k*chunk for k ≥ 3, and the per-link loads are defined by
// the accumulating reference model, so the plan replays the additions.
func repAdd(chunk float64, k int32) float64 {
	var s float64
	for ; k > 0; k-- {
		s += chunk
	}
	return s
}

// ringEval scales a ring plan by the payload, accumulating per-link bytes
// into vec, and returns the completion time.
func (p *Plan) ringEval(bytes float64, vec []float64) (float64, error) {
	if p.err != nil {
		return 0, p.err
	}
	chunk := bytes / float64(p.n)
	if p.bidir {
		chunk /= 2
	}
	var worst float64
	for e, id := range p.linkIDs {
		b := repAdd(chunk, p.counts[e])
		if t := b / p.bw[e]; t > worst {
			worst = t
		}
		vec[id] += b * float64(p.steps)
	}
	stepTime := worst + float64(p.maxHops)*p.alpha
	return float64(p.steps) * stepTime, nil
}

func (p *Plan) twoDEval(bytes float64, lv *LoadVector) (Result, error) {
	total := Result{Loads: lv}
	phase := func(subs []*Plan) error {
		var phaseTime float64
		for _, sp := range subs {
			t, err := sp.ringEval(bytes, lv.vec)
			if err != nil {
				return err
			}
			if t > phaseTime {
				phaseTime = t
			}
			total.Steps += sp.steps
		}
		total.Time += phaseTime
		return nil
	}
	// Row phase reduces the full tensor; the column phase combines the
	// row-partial results (full volume again — 2D TP's overhead).
	if err := phase(p.rowPlans); err != nil {
		return Result{}, err
	}
	if err := phase(p.colPlans); err != nil {
		return Result{}, err
	}
	return total, nil
}

func (p *Plan) tacosEval(bytes float64, vec []float64) float64 {
	wire := 2 * float64(p.n-1) / float64(p.n) * bytes
	// Effective injection bandwidth per die: min degree × link bandwidth,
	// discounted for schedule imperfection.
	eff := float64(p.minDeg) * p.linkBW * 0.9
	t := wire/eff + float64(p.steps)*p.alpha
	per := wire * float64(p.n) / float64(len(p.tacosIDs))
	for _, id := range p.tacosIDs {
		vec[id] += per
	}
	return t
}

// buildRingPlan embeds the serpentine ring and records, per dense link ID,
// how many ring edges traverse the link each step.
func buildRingPlan(m *mesh.Mesh, group []mesh.DieID, bidirectional bool) *Plan {
	n := len(group)
	p := &Plan{
		kind:  kindRing,
		n:     n,
		steps: 2 * (n - 1),
		bidir: bidirectional,
		alpha: m.LinkLatency,
	}
	order := ringOrder(group)
	counts := make([]int32, m.NumLinks())
	addEdge := func(a, b mesh.DieID) {
		route := m.XYPathIDs(a, b)
		if len(route) > p.maxHops {
			p.maxHops = len(route)
		}
		for _, id := range route {
			counts[id]++
		}
	}
	for i := 0; i < n; i++ {
		a, b := order[i], order[(i+1)%n]
		addEdge(a, b)
		if bidirectional {
			addEdge(b, a)
		}
	}
	for id, c := range counts {
		if c == 0 {
			continue
		}
		bw := m.EffBW(id)
		if bw <= 0 && p.err == nil {
			p.err = fmt.Errorf("collective: ring edge uses dead link %v", m.LinkAt(id))
		}
		p.linkIDs = append(p.linkIDs, int32(id))
		p.counts = append(p.counts, c)
		p.bw = append(p.bw, bw)
	}
	return p
}

// buildTwoDPlan decomposes the group into rows and columns of its bounding
// box; each phase is a set of bidirectional sub-rings. Total wire volume is
// roughly double that of 1D ring — the Fig 21 "2D TP is worst on a 2D mesh"
// result.
func buildTwoDPlan(m *mesh.Mesh, group []mesh.DieID) *Plan {
	rows := map[int][]mesh.DieID{}
	cols := map[int][]mesh.DieID{}
	for _, d := range group {
		rows[d.Y] = append(rows[d.Y], d)
		cols[d.X] = append(cols[d.X], d)
	}
	p := &Plan{kind: kindTwoD, n: len(group), alpha: m.LinkLatency}
	build := func(groups map[int][]mesh.DieID) []*Plan {
		keys := make([]int, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var subs []*Plan
		for _, k := range keys {
			g := groups[k]
			if len(g) < 2 {
				continue
			}
			sub := buildRingPlan(m, g, true)
			if sub.err != nil && p.err == nil {
				p.err = sub.err
			}
			subs = append(subs, sub)
		}
		return subs
	}
	p.rowPlans = build(rows)
	p.colPlans = build(cols)
	return p
}

// buildTacosPlan models a TACOS-synthesised schedule: a time-expanded
// link-chunk matching that keeps every boundary link of the group busy. Its
// completion time approaches the bandwidth lower bound
// 2(n−1)/n·V / (k·BW) where k is the number of usable link directions per
// die (limited by the group's perimeter topology), plus per-round latency.
func buildTacosPlan(m *mesh.Mesh, group []mesh.DieID) *Plan {
	n := len(group)
	p := &Plan{
		kind:   kindTacos,
		n:      n,
		steps:  2 * (n - 1),
		alpha:  m.LinkLatency,
		linkBW: m.LinkBandwidth,
	}
	inGroup := make([]bool, m.Dies())
	for _, d := range group {
		if i := m.DieIndex(d); i >= 0 {
			inGroup[i] = true
		}
	}
	minDeg := int(^uint32(0) >> 1) // math.MaxInt32 as in the reference model
	for _, d := range group {
		deg := 0
		for _, nb := range [4]mesh.DieID{{X: d.X + 1, Y: d.Y}, {X: d.X - 1, Y: d.Y}, {X: d.X, Y: d.Y + 1}, {X: d.X, Y: d.Y - 1}} {
			ni := m.DieIndex(nb)
			if ni < 0 || !inGroup[ni] {
				continue
			}
			id := m.LinkIndex(mesh.Link{From: d, To: nb})
			if id >= 0 && m.EffBW(id) > 0 {
				deg++
				p.tacosIDs = append(p.tacosIDs, int32(id))
			}
		}
		if deg < minDeg {
			minDeg = deg
		}
	}
	p.minDeg = minDeg
	if minDeg == 0 || minDeg == int(^uint32(0)>>1) {
		p.err = fmt.Errorf("collective: group is disconnected for TACOS")
	}
	return p
}

// Rectangle returns the dies of an r×c submesh anchored at (x0, y0).
func Rectangle(x0, y0, cols, rows int) []mesh.DieID {
	var out []mesh.DieID
	for y := y0; y < y0+rows; y++ {
		for x := x0; x < x0+cols; x++ {
			out = append(out, mesh.DieID{X: x, Y: y})
		}
	}
	return out
}
