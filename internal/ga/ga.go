// Package ga implements the genetic-algorithm global optimizer of §IV-D
// (Fig 12). A genome bundles a recomputation configuration, a stage→region
// placement permutation, and the Mem_pair set; the five customised operators
// Op1–Op5 mutate and recombine genomes, a fitness function
// (t_max × (1 + Eq 2 GlobalCost)) prices each genome on one reused scratch,
// and selection mixes elitism with binary tournaments under the ω knob
// whose convergence/quality trade-off is the Fig 24b experiment. A child
// inherits its tournament parent's t_max and Eq 2 cost and prices again
// only a part whose inputs its crossover and mutation changed.
package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
)

// Genome is one candidate configuration.
type Genome struct {
	// RecompChoice is the per-stage option index into the stage profiles.
	RecompChoice []int
	// Perm maps stage → base-region index (placement permutation).
	Perm []int
	// Pairs is the Mem_pair set.
	Pairs []recompute.MemPair
}

// Clone deep-copies the genome.
func (g Genome) Clone() Genome {
	var out Genome
	copyGenome(&out, g)
	return out
}

// copyGenome overwrites dst with a deep copy of src, reusing dst's slices
// where their capacity allows.
func copyGenome(dst *Genome, src Genome) {
	dst.RecompChoice = append(dst.RecompChoice[:0], src.RecompChoice...)
	dst.Perm = append(dst.Perm[:0], src.Perm...)
	dst.Pairs = append(dst.Pairs[:0], src.Pairs...)
}

// Problem describes the optimisation instance.
type Problem struct {
	Mesh     *mesh.Mesh
	Profiles []recompute.StageProfile
	// BaseRegions is the region geometry being permuted.
	BaseRegions []placement.Region
	// PipelineBytes weights Eq 2's pipeline term.
	PipelineBytes []float64
}

func (p *Problem) stages() int { return len(p.Profiles) }

// validPerm reports whether the genome's permutation indexes BaseRegions
// in range. Out-of-range entries used to alias regions via a silent modulo
// wraparound; they are now rejected as infeasible.
func (p *Problem) validPerm(perm []int) bool {
	if len(perm) != p.stages() {
		return false
	}
	for _, r := range perm {
		if r < 0 || r >= len(p.BaseRegions) {
			return false
		}
	}
	return true
}

// Fitness evaluates t_max × (1 + GlobalCost) (§IV-D); lower is better.
// Infeasible genomes (memory overflow beyond helpers' capacity, or a
// permutation that indexes outside the base regions) return +Inf.
func (p *Problem) Fitness(g Genome) float64 {
	return p.fitness(g, p.newScratch())
}

// fitness is Fitness on a reused scratch. Every genome is priced in full:
// t_max from its recomputation choices and Mem_pairs, and Eq 2 by
// globalCost, which is the evaluation GlobalCost runs, so the value is the
// same to the bit. On an interned mesh it does not allocate. Optimize
// prices its genomes with score, which takes the same two parts but reuses
// a parent's when their inputs are unchanged.
func (p *Problem) fitness(g Genome, s *evalScratch) float64 {
	if !p.validPerm(g.Perm) {
		return math.Inf(1)
	}
	tmax, feasible := p.maxStageTime(g, s)
	if !feasible {
		return math.Inf(1)
	}
	// GlobalCost can be zero for trivial single-stage problems; keep the
	// fitness ordered by time in that case.
	return tmax * (1 + p.globalCost(g, s))
}

// globalCost is Eq 2 of the genome's placement and Mem_pairs: EvalAnchors
// over the stage anchors looked up in the scratch's base-region table.
// The permutation must index BaseRegions in range.
func (p *Problem) globalCost(g Genome, s *evalScratch) float64 {
	s.anchors = s.anchors[:0]
	for _, r := range g.Perm {
		s.anchors = append(s.anchors, s.base[r])
	}
	return placement.EvalAnchors(p.Mesh, s.anchors, placement.Workload{
		PipelineBytes: p.PipelineBytes,
		Pairs:         g.Pairs,
	}, s.occ)
}

// evalScratch is one Optimize run's fitness state: the base regions'
// anchors (derived once), the genome's stage→anchor table, the
// occupied-link set Eq 2 reuses and maxStageTime's per-stage pair volumes,
// plus how many t_max and Eq 2 prices score took on it.
type evalScratch struct {
	base, anchors          []mesh.DieID
	occ                    *mesh.LinkSet
	outgoing, incoming     []float64
	tmaxPrices, costPrices int
}

func (p *Problem) newScratch() *evalScratch {
	n := p.stages()
	s := &evalScratch{
		base:     make([]mesh.DieID, len(p.BaseRegions)),
		anchors:  make([]mesh.DieID, 0, n),
		occ:      p.Mesh.NewLinkSet(),
		outgoing: make([]float64, n),
		incoming: make([]float64, n),
	}
	for i, r := range p.BaseRegions {
		s.base[i] = r.Anchor()
	}
	return s
}

// maxStageTime returns the bottleneck stage time and overall feasibility:
// every stage's retained checkpoints minus outgoing pair volume must fit its
// local capacity, and incoming pair volume must fit helpers' spare.
func (p *Problem) maxStageTime(g Genome, s *evalScratch) (float64, bool) {
	n := p.stages()
	if len(g.RecompChoice) != n {
		return 0, false
	}
	outgoing, incoming := s.outgoing, s.incoming
	clear(outgoing)
	clear(incoming)
	for _, pr := range g.Pairs {
		if pr.Sender < 0 || pr.Sender >= n || pr.Helper < 0 || pr.Helper >= n || pr.Bytes < 0 {
			return 0, false
		}
		outgoing[pr.Sender] += pr.Bytes
		incoming[pr.Helper] += pr.Bytes
	}
	var tmax float64
	for st, prof := range p.Profiles {
		oi := g.RecompChoice[st]
		if oi < 0 || oi >= len(prof.Options) {
			return 0, false
		}
		if prof.CkptBytes(oi)-outgoing[st]+incoming[st] > prof.LocalCheckpointCapacity()+1e-6 {
			return 0, false
		}
		if t := prof.StageTime(oi); t > tmax {
			tmax = t
		}
	}
	return tmax, true
}

// Placement materialises the genome's stage→region assignment, or nil when
// the permutation indexes outside BaseRegions. A genome Optimize returns
// always has a placement.
func (p *Problem) Placement(g Genome) *placement.Placement {
	regions := make([]placement.Region, len(g.Perm))
	for s, r := range g.Perm {
		if r < 0 || r >= len(p.BaseRegions) {
			return nil
		}
		regions[s] = p.BaseRegions[r]
	}
	return &placement.Placement{Regions: regions}
}

// Options tune the search.
type Options struct {
	// Population size (default 32).
	Population int
	// Generations to run (default 100).
	Generations int
	// Omega is the elitism proportion ω of §V-A: 1.0 = pure elitist
	// (fast, often suboptimal), 0.0 = pure binary tournament (diverse,
	// slower convergence).
	Omega float64
	// Seed for reproducibility.
	Seed int64
	// Workers is ignored: Optimize prices each generation sequentially on
	// one scratch.
	//
	// Deprecated: a generation's genomes cost microseconds each, too
	// little to hand to goroutines; callers fan out whole searches instead.
	Workers int
}

// Result reports the best genome and the convergence history.
type Result struct {
	Best        Genome
	BestFitness float64
	// History[g] is the best fitness after generation g (Fig 24b curves).
	History []float64
}

// Optimize runs the GA from the given seed genome (typically the greedy
// GCMR + serpentine solution, which the GA escapes via Op1–Op5).
//
// A child starts as a copy of its first tournament parent, and it inherits
// that parent's priced parts with the genome: t_max with its feasibility,
// a function of RecompChoice and Pairs, and the Eq 2 cost, a function of
// Perm and Pairs. After crossover and mutation the child is compared with
// that parent, and only a part whose inputs differ is priced again, so
// every fitness has the bits fitness would give it. Elites enter the next
// generation in their own arena slots, without a copy.
func Optimize(p *Problem, seed Genome, opts Options) (*Result, error) {
	res, _, _, err := optimize(p, seed, opts)
	return res, err
}

// optimize is Optimize. It also returns how many t_max and Eq 2 prices it
// took.
func optimize(p *Problem, seed Genome, opts Options) (res *Result, tmaxPrices, costPrices int, err error) {
	if p.stages() == 0 {
		return nil, 0, 0, fmt.Errorf("ga: empty problem")
	}
	if len(seed.RecompChoice) != p.stages() || len(seed.Perm) != p.stages() {
		return nil, 0, 0, fmt.Errorf("ga: seed genome shape mismatch")
	}
	// Every descendant's Perm takes its entries from the seed's, so a seed
	// in range keeps crossover's region index and score's anchor lookup in
	// range.
	if !p.validPerm(seed.Perm) {
		return nil, 0, 0, fmt.Errorf("ga: seed permutation indexes outside the %d base regions", len(p.BaseRegions))
	}
	pop := opts.Population
	if pop <= 0 {
		pop = 32
	}
	gens := opts.Generations
	if gens <= 0 {
		gens = 100
	}
	omega := opts.Omega
	if omega < 0 {
		omega = 0
	}
	if omega > 1 {
		omega = 1
	}
	rng := rand.New(rand.NewSource(opts.Seed + 7))

	// The genomes live in an arena of 2·pop slots: population points into
	// pop of them and free holds the rest. Each generation the elites keep
	// their slots, the children are written into free slots, which no
	// tournament reads, and then the last generation's non-elite slots
	// become free. A fresh slot holds no priced parts, so the initial
	// population is priced in full. A slot reuses its slices once they
	// have grown, so a generation allocates nothing.
	arena := make([]slot, 2*pop)
	population, next := make([]scored, pop), make([]scored, pop)
	free := make([]*slot, pop)
	for i := range population {
		population[i].g, free[i] = &arena[i], &arena[pop+i]
	}

	// Each genome is priced as soon as it is made, on the run's one
	// scratch. Pricing draws nothing from rng and a slot's parts depend
	// only on its genome.
	scratch := p.newScratch()
	for i, s := range population {
		copyGenome(&s.g.Genome, seed)
		if i > 0 {
			p.mutate(&s.g.Genome, rng)
		}
		population[i].f = p.score(s.g, scratch)
	}

	// res.Best gets its own copy: a slot is overwritten once it is free.
	res = &Result{BestFitness: math.Inf(1), History: make([]float64, 0, gens+1)}
	used := make([]bool, len(p.BaseRegions))
	// Selection: ω fraction of parents by elitism, the rest by binary
	// tournament (preserving diversity).
	elite := max(1, int(omega*float64(pop)))
	for gen := 0; ; gen++ {
		sortPopulation(population)
		if population[0].f < res.BestFitness {
			res.BestFitness = population[0].f
			copyGenome(&res.Best, population[0].g.Genome)
		}
		res.History = append(res.History, res.BestFitness)
		if gen == gens {
			break
		}

		copy(next, population[:elite])
		for i, c := range free[:pop-elite] {
			parent := p.tournament(population, rng)
			copyGenome(&c.Genome, parent.Genome)
			c.parts = parent.parts
			// Crossover with a second tournament parent half the time.
			if rng.Float64() < 0.5 {
				p.crossover(&c.Genome, p.tournament(population, rng).Genome, used, rng)
			}
			p.mutate(&c.Genome, rng)
			c.dropChanged(&parent.Genome)
			next[elite+i] = scored{c, p.score(c, scratch)}
		}
		for i, s := range population[elite:] {
			free[i] = s.g
		}
		population, next = next, population
	}
	if math.IsInf(res.BestFitness, 1) {
		return nil, scratch.tmaxPrices, scratch.costPrices, fmt.Errorf("ga: no feasible genome found")
	}
	return res, scratch.tmaxPrices, scratch.costPrices, nil
}

// slot is a genome of Optimize's arena with its priced parts.
type slot struct {
	Genome
	parts
}

// parts are a genome's priced fitness parts: t_max with its feasibility,
// a function of RecompChoice and Pairs, and the Eq 2 cost, a function of
// Perm and Pairs. hasTmax and hasCost say which of them hold; an
// infeasible genome's cost is never priced.
type parts struct {
	tmax, cost                 float64
	feasible, hasTmax, hasCost bool
}

// dropChanged clears the parts whose inputs differ from parent's: t_max
// when RecompChoice or Pairs differ, the cost when Perm or Pairs do. It
// compares the genomes rather than having the operators flag what they
// touch: Op1 can redraw the same option, a crossover suffix can match and
// Op3 can swap a stage with itself, and an operator cannot forget to flag.
func (c *slot) dropChanged(parent *Genome) {
	samePairs := slices.EqualFunc(c.Pairs, parent.Pairs, samePair)
	if !samePairs || !slices.Equal(c.RecompChoice, parent.RecompChoice) {
		c.hasTmax = false
	}
	if !samePairs || !slices.Equal(c.Perm, parent.Perm) {
		c.hasCost = false
	}
}

// samePair reports whether two Mem_pairs are equal to the bit.
func samePair(a, b recompute.MemPair) bool {
	return a.Sender == b.Sender && a.Helper == b.Helper && math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes)
}

// score is the slot's fitness on Optimize's scratch. It prices only the
// parts the slot does not hold and returns tmax × (1 + cost), the
// expression fitness returns, so the bits are the same. It skips fitness's
// permutation check: Optimize validated the seed's.
func (p *Problem) score(c *slot, s *evalScratch) float64 {
	if !c.hasTmax {
		c.tmax, c.feasible = p.maxStageTime(c.Genome, s)
		c.hasTmax = true
		s.tmaxPrices++
	}
	if !c.feasible {
		return math.Inf(1)
	}
	if !c.hasCost {
		c.cost = p.globalCost(c.Genome, s)
		c.hasCost = true
		s.costPrices++
	}
	return c.tmax * (1 + c.cost)
}

// scored is a population member: a slot of Optimize's arena and its
// fitness. It holds a pointer, not the slot, so sorting moves 16 bytes per
// element.
type scored struct {
	g *slot
	f float64
}

// sortPopulation orders a population by ascending fitness. slices.SortFunc
// runs the same pattern-defeating quicksort as sort.Slice, and this
// comparator is negative exactly when sort.Slice's less function,
// a.f < b.f, holds, so members of equal fitness end where sort.Slice put
// them (neither sort is stable).
func sortPopulation(pop []scored) {
	slices.SortFunc(pop, func(a, b scored) int {
		if a.f < b.f {
			return -1
		}
		if b.f < a.f {
			return 1
		}
		return 0
	})
}

func (p *Problem) tournament(pop []scored, rng *rand.Rand) *slot {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	if pop[a].f <= pop[b].f {
		return pop[a].g
	}
	return pop[b].g
}

// mutate applies one of the five §IV-D operators.
func (p *Problem) mutate(g *Genome, rng *rand.Rand) {
	n := p.stages()
	switch rng.Intn(5) {
	case 0: // Op1 — R variation: toggle recomputation level of a stage.
		s := rng.Intn(n)
		opts := len(p.Profiles[s].Options)
		if opts > 1 {
			g.RecompChoice[s] = rng.Intn(opts)
		}
	case 1: // Op2 — R crossover between two stages (swap their configs).
		if n > 1 {
			a, b := rng.Intn(n), rng.Intn(n)
			ca := clampChoice(g.RecompChoice[a], len(p.Profiles[b].Options))
			cb := clampChoice(g.RecompChoice[b], len(p.Profiles[a].Options))
			g.RecompChoice[a], g.RecompChoice[b] = cb, ca
		}
	case 2: // Op3 — placement variation: swap two stages' physical regions.
		if n > 1 {
			a, b := rng.Intn(n), rng.Intn(n)
			g.Perm[a], g.Perm[b] = g.Perm[b], g.Perm[a]
		}
	case 3: // Op4 — A variation: remove, resize or add a Mem_pair.
		p.op4(g, rng)
	case 4: // Op5 — A crossover: exchange two senders' pair assignments.
		if len(g.Pairs) > 1 {
			a, b := rng.Intn(len(g.Pairs)), rng.Intn(len(g.Pairs))
			g.Pairs[a].Helper, g.Pairs[b].Helper = g.Pairs[b].Helper, g.Pairs[a].Helper
		}
	}
}

// op4 is the Mem_pair variation operator. With pairs present it mutates an
// existing pair half the time, deciding remove-vs-resize first — the old
// ordering resized the pair and then rolled a (tautologically guarded)
// removal, wasting the resize on pairs it immediately deleted. A selected
// pair is removed with p=0.3 and resized otherwise; the other half of the
// time (or with no pairs) a new pair is proposed between two distinct
// stages.
func (p *Problem) op4(g *Genome, rng *rand.Rand) {
	n := p.stages()
	if len(g.Pairs) > 0 && rng.Float64() < 0.5 {
		i := rng.Intn(len(g.Pairs))
		if rng.Float64() < 0.3 {
			g.Pairs = append(g.Pairs[:i], g.Pairs[i+1:]...)
		} else {
			g.Pairs[i].Bytes *= 0.5 + rng.Float64()
		}
	} else if n > 1 {
		s, h := rng.Intn(n), rng.Intn(n)
		if s != h {
			prof := p.Profiles[s]
			vol := prof.CkptBytes(clampChoice(g.RecompChoice[s], len(prof.Options))) * 0.1
			g.Pairs = append(g.Pairs, recompute.MemPair{Sender: s, Helper: h, Bytes: vol})
		}
	}
}

// crossover mixes another genome's placement and recompute choices. used
// is scratch with one flag per base region, which both genomes' Perm
// entries index.
func (p *Problem) crossover(g *Genome, other Genome, used []bool, rng *rand.Rand) {
	n := p.stages()
	cut := rng.Intn(n)
	for s := cut; s < n; s++ {
		g.RecompChoice[s] = clampChoice(other.RecompChoice[s], len(p.Profiles[s].Options))
	}
	// Permutation crossover: adopt the other's ordering for the suffix via
	// order-preserving fill to keep Perm a permutation.
	clear(used)
	for s := 0; s < cut; s++ {
		used[g.Perm[s]] = true
	}
	idx := cut
	for _, r := range other.Perm {
		if !used[r] && idx < n {
			g.Perm[idx] = r
			used[r] = true
			idx++
		}
	}
}

func clampChoice(c, n int) int {
	if c < 0 || n <= 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}

// SeedFromPlan builds the initial genome from a GCMR plan and a serpentine
// placement (the greedy solution of Fig 12's blue path).
func SeedFromPlan(plan *recompute.Plan, stages int) Genome {
	g := Genome{
		RecompChoice: append([]int(nil), plan.Choice...),
		Perm:         make([]int, stages),
		Pairs:        append([]recompute.MemPair(nil), plan.Pairs...),
	}
	for i := range g.Perm {
		g.Perm[i] = i
	}
	return g
}
