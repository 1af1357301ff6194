// Package ga implements the genetic-algorithm global optimizer of §IV-D
// (Fig 12). A genome bundles a recomputation configuration, a stage→region
// placement permutation, and the Mem_pair set; the five customised operators
// Op1–Op5 mutate and recombine genomes, a fitness function
// (t_max × (1 + Eq 2 GlobalCost)) prices every genome directly on per-worker
// scratch, and selection mixes elitism with binary tournaments under the ω
// knob whose convergence/quality trade-off is the Fig 24b experiment.
package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
	"repro/internal/search/pool"
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

// fitness is Fitness on a worker's scratch. Every genome is priced in full:
// t_max from its recomputation choices and Mem_pairs, and Eq 2 by
// EvalAnchors over the stage anchors looked up in the scratch's base-region
// table, which is the evaluation GlobalCost runs, so the value is the same
// to the bit. On an interned mesh it does not allocate.
func (p *Problem) fitness(g Genome, s *evalScratch) float64 {
	if !p.validPerm(g.Perm) {
		return math.Inf(1)
	}
	tmax, feasible := p.maxStageTime(g, s)
	if !feasible {
		return math.Inf(1)
	}
	s.anchors = s.anchors[:0]
	for _, r := range g.Perm {
		s.anchors = append(s.anchors, s.base[r])
	}
	cost := placement.EvalAnchors(p.Mesh, s.anchors, placement.Workload{
		PipelineBytes: p.PipelineBytes,
		Pairs:         g.Pairs,
	}, s.occ)
	// GlobalCost can be zero for trivial single-stage problems; keep the
	// fitness ordered by time in that case.
	return tmax * (1 + cost)
}

// evalScratch is one pool worker's fitness state: the base regions'
// anchors (derived once), the genome's stage→anchor table, the
// occupied-link set Eq 2 reuses and maxStageTime's per-stage pair volumes.
// Each worker owns one, so scoring takes no locks.
type evalScratch struct {
	base, anchors      []mesh.DieID
	occ                *mesh.LinkSet
	outgoing, incoming []float64
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
	// Workers sizes the fitness-evaluation worker pool (0 = GOMAXPROCS,
	// 1 = sequential). Fitness is a pure function of the genome, so the
	// result is identical for every worker count.
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
func Optimize(p *Problem, seed Genome, opts Options) (*Result, error) {
	if p.stages() == 0 {
		return nil, fmt.Errorf("ga: empty problem")
	}
	if len(seed.RecompChoice) != p.stages() || len(seed.Perm) != p.stages() {
		return nil, fmt.Errorf("ga: seed genome shape mismatch")
	}
	// Every descendant's Perm takes its entries from the seed's, so a seed
	// in range keeps crossover's region index in range.
	if !p.validPerm(seed.Perm) {
		return nil, fmt.Errorf("ga: seed permutation indexes outside the %d base regions", len(p.BaseRegions))
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

	// The genomes live in two arenas of pop slots, the halves of arena:
	// population points into one and next into the other. Each generation
	// overwrites next's genomes in place, then the two swap, so a genome is
	// never written while it is read. A slot reuses its slices once they
	// have grown, so with one worker a generation allocates nothing.
	arena := make([]Genome, 2*pop)
	population, next := make([]scored, pop), make([]scored, pop)
	for i := range population {
		population[i].g, next[i].g = &arena[i], &arena[pop+i]
	}

	// Genome generation stays sequential (it consumes the RNG stream), but
	// fitness — the expensive, pure part — is scored in place on the worker
	// pool. Each worker owns an evalScratch, and fitness depends only on the
	// genome, so the result is identical for every worker count.
	runner := pool.New(opts.Workers)
	scratches := make([]*evalScratch, runner.Width(pop))
	var batch []scored
	score := func(w, i int) {
		if scratches[w] == nil {
			scratches[w] = p.newScratch()
		}
		batch[i].f = p.fitness(*batch[i].g, scratches[w])
	}

	for i, s := range population {
		copyGenome(s.g, seed)
		if i > 0 {
			p.mutate(s.g, rng)
		}
	}
	batch = population
	runner.RunWorker(len(batch), score)

	// res.Best gets its own copy: an arena slot is overwritten two
	// generations after it is written.
	res := &Result{BestFitness: math.Inf(1), History: make([]float64, 0, gens+1)}
	used := make([]bool, len(p.BaseRegions))
	// Selection: ω fraction of parents by elitism, the rest by binary
	// tournament (preserving diversity).
	elite := max(1, int(omega*float64(pop)))
	for gen := 0; ; gen++ {
		sortPopulation(population)
		if population[0].f < res.BestFitness {
			res.BestFitness = population[0].f
			copyGenome(&res.Best, *population[0].g)
		}
		res.History = append(res.History, res.BestFitness)
		if gen == gens {
			break
		}

		for i, s := range next {
			if i < elite {
				copyGenome(s.g, *population[i].g)
				next[i].f = population[i].f
				continue
			}
			copyGenome(s.g, p.tournament(population, rng))
			// Crossover with a second tournament parent half the time.
			if rng.Float64() < 0.5 {
				p.crossover(s.g, p.tournament(population, rng), used, rng)
			}
			p.mutate(s.g, rng)
		}
		batch = next[elite:]
		runner.RunWorker(len(batch), score)
		population, next = next, population
	}
	if math.IsInf(res.BestFitness, 1) {
		return nil, fmt.Errorf("ga: no feasible genome found")
	}
	return res, nil
}

// scored is a population member: a genome in one of Optimize's arenas and
// its fitness. It holds a pointer, not the genome, so sorting moves 16
// bytes per element.
type scored struct {
	g *Genome
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

func (p *Problem) tournament(pop []scored, rng *rand.Rand) Genome {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	if pop[a].f <= pop[b].f {
		return *pop[a].g
	}
	return *pop[b].g
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
