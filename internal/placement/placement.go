// Package placement implements the optimal resource-placement strategy of
// §IV-C-1 (Fig 11): pipeline stages are assigned rectangular regions of the
// wafer mesh, and the assignment is chosen to minimise the GlobalCost of
// Eq 2 — pipeline-path distance weighted by pipeline communication volume,
// plus Mem_pair (activation-balancing) distance weighted by transfer volume
// and punished by the routing-conflict factor (1 + γ).
//
// Two strategies are provided: the traditional left-to-right, top-to-bottom
// serpentine placement (the Fig 11a baseline, also used by the
// Megatron-wafer baseline) and the spatial location-aware placement searched
// by simulated annealing over stage-region permutations (Fig 11b).
package placement

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mesh"
	"repro/internal/recompute"
)

// Region is the set of dies assigned to one pipeline stage.
type Region struct {
	Dies []mesh.DieID
}

// Center returns the centroid of the region (S_i of Eq 2).
func (r Region) Center() (float64, float64) {
	if len(r.Dies) == 0 {
		return 0, 0
	}
	var sx, sy float64
	for _, d := range r.Dies {
		sx += float64(d.X)
		sy += float64(d.Y)
	}
	n := float64(len(r.Dies))
	return sx / n, sy / n
}

// Anchor returns the die nearest the region centroid, used as the routing
// endpoint for inter-stage paths.
func (r Region) Anchor() mesh.DieID {
	if len(r.Dies) == 0 {
		return mesh.DieID{}
	}
	cx, cy := r.Center()
	best := r.Dies[0]
	bd := math.Inf(1)
	for _, d := range r.Dies {
		dist := math.Abs(float64(d.X)-cx) + math.Abs(float64(d.Y)-cy)
		if dist < bd {
			bd, best = dist, d
		}
	}
	return best
}

// Placement maps pipeline stages to wafer regions.
type Placement struct {
	// Regions[s] is the region of stage s.
	Regions []Region
}

// Workload gives the communication volumes weighting Eq 2.
type Workload struct {
	// PipelineBytes[s] is the activation volume stage s sends to s+1 per
	// iteration (Comm_PP of Eq 2).
	PipelineBytes []float64
	// Pairs is the Mem_pair set with per-iteration transfer volumes
	// (Comm_pair of Eq 2).
	Pairs []recompute.MemPair
}

// Partition slices the mesh into pp contiguous regions of tp dies each,
// walking the mesh in serpentine order. It requires tp·pp ≤ dies.
func Partition(m *mesh.Mesh, tp, pp int) ([]Region, error) {
	if tp <= 0 || pp <= 0 {
		return nil, fmt.Errorf("placement: invalid tp=%d pp=%d", tp, pp)
	}
	if tp*pp > m.Dies() {
		return nil, fmt.Errorf("placement: tp×pp = %d exceeds %d dies", tp*pp, m.Dies())
	}
	// Serpentine walk over the mesh.
	var order []mesh.DieID
	for y := 0; y < m.Rows; y++ {
		if y%2 == 0 {
			for x := 0; x < m.Cols; x++ {
				order = append(order, mesh.DieID{X: x, Y: y})
			}
		} else {
			for x := m.Cols - 1; x >= 0; x-- {
				order = append(order, mesh.DieID{X: x, Y: y})
			}
		}
	}
	regions := make([]Region, pp)
	for s := 0; s < pp; s++ {
		regions[s] = Region{Dies: append([]mesh.DieID(nil), order[s*tp:(s+1)*tp]...)}
	}
	return regions, nil
}

// Serpentine returns the traditional left-to-right, top-to-bottom placement
// (Fig 11a): stage s occupies the s-th region in serpentine order.
func Serpentine(m *mesh.Mesh, tp, pp int) (*Placement, error) {
	regions, err := Partition(m, tp, pp)
	if err != nil {
		return nil, err
	}
	return &Placement{Regions: regions}, nil
}

// GlobalCost evaluates Eq 2 for the placement under the workload: pipeline
// hops weighted by pipeline volume plus Mem_pair hops weighted by transfer
// volume and the conflict punishment (1 + γ), where γ counts balance-path
// links already occupied by pipeline paths. When several shortest paths
// exist for a balance transfer, the one minimising the punished cost is
// chosen.
func GlobalCost(m *mesh.Mesh, p *Placement, w Workload) float64 {
	pp := len(p.Regions)
	if pp == 0 {
		return 0
	}
	anchors := make([]mesh.DieID, pp)
	for s := range p.Regions {
		anchors[s] = p.Regions[s].Anchor()
	}
	return anchorCost(m, anchors, w, m.NewLinkSet())
}

// anchorCost is the Eq 2 core shared by GlobalCost, EvalAnchors and the
// annealing loop past the interning bound: it evaluates the cost of a
// stage→anchor assignment directly, reusing the caller's occupied-link
// scratch set. anchors[s] is the routing endpoint of stage s.
func anchorCost(m *mesh.Mesh, anchors []mesh.DieID, w Workload, occupied *mesh.LinkSet) float64 {
	pp := len(anchors)
	occupied.Clear()
	var cost float64
	// Pipeline paths (anchor-to-anchor XY routes) in stage order.
	for s := 0; s+1 < pp; s++ {
		path := m.XYPathIDs(anchors[s], anchors[s+1])
		vol := 0.0
		if s < len(w.PipelineBytes) {
			vol = w.PipelineBytes[s]
		}
		cost += float64(len(path)) * vol
		for _, id := range path {
			occupied.Add(int(id))
		}
	}
	// Activation-balance paths with conflict punishment.
	for _, pr := range w.Pairs {
		if pr.Sender >= pp || pr.Helper >= pp || pr.Sender < 0 || pr.Helper < 0 {
			continue
		}
		a := anchors[pr.Sender]
		b := anchors[pr.Helper]
		best := math.Inf(1)
		for _, path := range m.ShortestPathIDs(a, b) {
			gamma := occupied.CountIn(path)
			c := float64(len(path)) * pr.Bytes * (1 + float64(gamma))
			if c < best {
				best = c
			}
		}
		if !math.IsInf(best, 1) {
			cost += best
		}
	}
	return cost
}

// EvalAnchors evaluates Eq 2 for an explicit stage→anchor table in one full
// pass. It is the GA's placement-cost evaluator and the reference the
// Scorer's cross-check tests and the annealer-iteration benchmark compare
// against; occupied is caller-provided scratch (cleared here).
func EvalAnchors(m *mesh.Mesh, anchors []mesh.DieID, w Workload, occupied *mesh.LinkSet) float64 {
	return anchorCost(m, anchors, w, occupied)
}

// Optimize searches stage→region assignments for the minimal GlobalCost
// (the spatial location-aware strategy of Fig 11b). Regions keep their
// geometry; the search permutes which pipeline stage occupies which region
// by simulated annealing seeded with the serpentine identity: 200·pp
// Metropolis proposals, each a random stage swap, accepted when it does not
// raise the cost or else with probability exp(−Δ/T) under geometric
// cooling.
//
// Each distinct swap is priced at most once per committed state: a memo
// keyed by the unordered stage pair holds each price stamped with the
// commit epoch it was taken in, and every accepted proposal starts a new
// epoch. A rejection leaves the state unchanged, so a swap proposed again
// in the same epoch reuses its price. Such a repeat is always uphill (a
// non-worse proposal is always accepted), so it draws its acceptance
// threshold from rng exactly as a fresh pricing would. This is the lazy
// form of the delta table of QAP local search (Taillard 1991), invalidated
// on commit because Eq 2's γ term couples every pair.
//
// The first proposal of a key takes a lower bound on its price before
// pricing it (Scorer.SwapLowerBound; −Inf past the interning bound). A
// bound above the committed cost proves the swap uphill, so the Metropolis
// rule would draw its uniform u now: the loop draws it, and rejects without
// pricing when u exceeds the bound's threshold exp((cur−bound)/T) widened by
// a relative 2^-30 and an absolute 2^-1000. The price is at least the bound
// and the division is monotone under rounding, but math.Exp is not
// guaranteed monotone; the widening absorbs a rise of a few ulps
// (TestExpQuasiMonotone), so such a u rejects the priced swap too.
// Otherwise it prices the swap and accepts iff u < exp((cur−price)/T), as
// the full loop does. The memo keeps the bound under the negated epoch, so
// a repeat in the same epoch repeats the test with its own u: the committed
// cost is fixed within an epoch, so the bound still exceeds it. This is the
// early rejection of MCMC (Solonen et al., Bayesian Analysis 7(3), 2012),
// which saves work without changing the chain.
//
// Behind the memo, on a mesh with interned routes a Scorer prices each swap
// read-only against the committed state and commits only an accepted one;
// past the interning bound each price is a full evaluation of the swapped
// anchor table. Both pricers return the same float bits for either order of
// a pair, so every draw from rng, every acceptance and the returned
// placement are those of a loop that fully evaluates every proposal
// (pinned by TestOptimizeMatchesReference,
// TestOptimizeSpeculativeMatchesScalar and the sched golden SHA).
func Optimize(m *mesh.Mesh, tp, pp int, w Workload, rng *rand.Rand) (*Placement, error) {
	p, _, _, err := optimize(m, tp, pp, w, rng, m.InternedMaskArena() != nil)
	return p, err
}

// optimize is Optimize with the pricer chosen by the caller: useScorer
// prices and bounds with a Scorer, which needs interned routes; otherwise
// each swap is priced by a full anchorCost evaluation under a −Inf bound.
// It also returns how many swaps it priced and how many bounds it took:
// one bound per distinct (pair, epoch) key.
func optimize(m *mesh.Mesh, tp, pp int, w Workload, rng *rand.Rand, useScorer bool) (p *Placement, prices, bounds int, err error) {
	base, err := Partition(m, tp, pp)
	if err != nil {
		return nil, 0, 0, err
	}
	anchors := make([]mesh.DieID, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	perm := make([]int, pp)
	for i := range perm {
		perm[i] = i
	}
	build := func(perm []int) *Placement {
		regions := make([]Region, pp)
		for s, r := range perm {
			regions[s] = base[r]
		}
		return &Placement{Regions: regions}
	}
	if pp <= 1 {
		return build(perm), 0, 0, nil
	}
	var price, bound func(a, b int) float64
	var commit func(a, b int)
	var curCost float64
	if useScorer {
		sc := NewScorer(m, anchors, w)
		curCost = sc.Cost()
		price = sc.SwapCost
		bound = sc.SwapLowerBound
		commit = func(a, b int) { sc.Commit(a, b) }
	} else {
		occupied := m.NewLinkSet()
		curCost = anchorCost(m, anchors, w, occupied)
		price = func(a, b int) float64 {
			anchors[a], anchors[b] = anchors[b], anchors[a]
			c := anchorCost(m, anchors, w, occupied)
			anchors[a], anchors[b] = anchors[b], anchors[a]
			return c
		}
		bound = func(int, int) float64 { return math.Inf(-1) }
		commit = func(a, b int) { anchors[a], anchors[b] = anchors[b], anchors[a] }
	}
	bestPerm := append([]int(nil), perm...)
	bestCost := curCost

	// memo[hi·(hi−1)/2 + lo] holds the swap of stages lo < hi: its price
	// while its epoch equals epoch, a bound above curCost on that price
	// while it equals −epoch. Epochs start at 1, so the zeroed table holds
	// no current entry.
	memo := make([]struct {
		epoch int
		cost  float64
	}, pp*(pp-1)/2)
	epoch := 1
	temp := curCost * 0.1
	if temp <= 0 {
		temp = 1
	}
	iters := 200 * pp
	for i := 0; i < iters; i++ {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			continue
		}
		lo, hi := min(a, b), max(a, b)
		e := &memo[hi*(hi-1)/2+lo]
		if e.epoch != epoch && e.epoch != -epoch {
			bounds++
			e.epoch, e.cost = -epoch, bound(a, b)
			if !(e.cost > curCost) {
				e.epoch, e.cost = epoch, price(a, b)
				prices++
			}
		}
		t := math.Max(temp, 1e-12)
		accept := false
		if e.epoch == epoch {
			accept = e.cost <= curCost || rng.Float64() < math.Exp((curCost-e.cost)/t)
		} else if u := rng.Float64(); u <= math.Exp((curCost-e.cost)/t)*(1+0x1p-30)+0x1p-1000 {
			// The bound exceeds curCost and so does the price: u is the
			// draw the full loop makes here, and only a u within the
			// widened threshold can accept.
			e.epoch, e.cost = epoch, price(a, b)
			prices++
			accept = u < math.Exp((curCost-e.cost)/t)
		}
		if accept {
			c := e.cost
			commit(a, b)
			epoch++
			perm[a], perm[b] = perm[b], perm[a]
			curCost = c
			if c < bestCost {
				bestCost = c
				copy(bestPerm, perm)
			}
		}
		temp *= 0.995
	}
	return build(bestPerm), prices, bounds, nil
}

// TotalHops returns the total pipeline + balance hop count of a placement
// (the "30% reduction in total hop count" metric of §IV-C-1). Like
// GlobalCost, it skips pairs with a stage index out of range.
func TotalHops(m *mesh.Mesh, p *Placement, pairs []recompute.MemPair) int {
	pp := len(p.Regions)
	hops := 0
	for s := 0; s+1 < pp; s++ {
		hops += m.Hops(p.Regions[s].Anchor(), p.Regions[s+1].Anchor())
	}
	for _, pr := range pairs {
		if pr.Sender >= 0 && pr.Sender < pp && pr.Helper >= 0 && pr.Helper < pp {
			hops += m.Hops(p.Regions[pr.Sender].Anchor(), p.Regions[pr.Helper].Anchor())
		}
	}
	return hops
}
