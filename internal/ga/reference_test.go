package ga

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceOptimize is Optimize as it stood before the genome arenas: the
// same validation, RNG draws and selection, with a fresh Clone of every
// child, sort.Slice over 80-byte values holding the genomes themselves,
// every genome priced in full by fitness on one scratch and scoring into a
// new slice per generation. TestOptimizeMatchesReference pins Optimize
// against it. It also counts what TestOptimizeComponentCounts bounds
// Optimize's prices by.
func referenceOptimize(p *Problem, seed Genome, opts Options) (*Result, ReferenceCounts, error) {
	var n ReferenceCounts
	if p.stages() == 0 {
		return nil, n, fmt.Errorf("ga: empty problem")
	}
	if len(seed.RecompChoice) != p.stages() || len(seed.Perm) != p.stages() {
		return nil, n, fmt.Errorf("ga: seed genome shape mismatch")
	}
	if !p.validPerm(seed.Perm) {
		return nil, n, fmt.Errorf("ga: seed permutation indexes outside the %d base regions", len(p.BaseRegions))
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
	scratch := p.newScratch()
	// score prices genomes in full. costChanged[i] says whether genome i's
	// Eq 2 inputs differ from its first tournament parent's.
	score := func(genomes []Genome, costChanged []bool) []referenceScored {
		out := make([]referenceScored, len(genomes))
		for i, g := range genomes {
			out[i] = referenceScored{g, p.fitness(g, scratch)}
		}
		for i, s := range out {
			n.Scored++
			if !math.IsInf(s.f, 1) {
				n.Feasible++
				if costChanged[i] {
					n.FeasibleCostChanged++
				}
			}
		}
		return out
	}

	initial := make([]Genome, 0, pop)
	initial = append(initial, seed.Clone())
	for len(initial) < pop {
		g := seed.Clone()
		p.mutate(&g, rng)
		initial = append(initial, g)
	}
	population := score(initial, slices.Repeat([]bool{true}, pop))

	res := &Result{BestFitness: math.Inf(1)}
	used := make([]bool, len(p.BaseRegions))
	for gen := 0; ; gen++ {
		sort.Slice(population, func(i, j int) bool { return population[i].f < population[j].f })
		if population[0].f < res.BestFitness {
			res.BestFitness, res.Best = population[0].f, population[0].g
		}
		res.History = append(res.History, res.BestFitness)
		if gen == gens {
			break
		}

		elite := max(1, int(omega*float64(pop)))
		next := append(make([]referenceScored, 0, pop), population[:elite]...)
		children := make([]Genome, 0, pop-elite)
		var costChanged []bool
		for elite+len(children) < pop {
			a := referenceTournament(population, rng)
			child := a.Clone()
			if rng.Float64() < 0.5 {
				b := referenceTournament(population, rng)
				p.crossover(&child, b, used, rng)
			}
			p.mutate(&child, rng)
			children = append(children, child)
			samePairs := slices.EqualFunc(child.Pairs, a.Pairs, samePair)
			if !samePairs || !slices.Equal(child.RecompChoice, a.RecompChoice) {
				n.TmaxChanged++
			}
			costChanged = append(costChanged, !samePairs || !slices.Equal(child.Perm, a.Perm))
		}
		population = append(next, score(children, costChanged)...)
	}
	if math.IsInf(res.BestFitness, 1) {
		return nil, n, fmt.Errorf("ga: no feasible genome found")
	}
	return res, n, nil
}

// ReferenceCounts tallies the genomes referenceOptimize scores: the
// initial population and every child. A child's t_max or Eq 2 inputs
// changed when they differ from its first tournament parent's; every
// genome of the initial population counts as changed. A genome is feasible
// when its fitness is finite.
type ReferenceCounts struct {
	Scored, Feasible int
	// TmaxChanged counts the children whose RecompChoice or Pairs changed.
	TmaxChanged int
	// FeasibleCostChanged counts the feasible genomes whose Perm or Pairs
	// changed.
	FeasibleCostChanged int
}

type referenceScored struct {
	g Genome
	f float64
}

func referenceTournament(pop []referenceScored, rng *rand.Rand) Genome {
	a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
	if pop[a].f <= pop[b].f {
		return pop[a].g
	}
	return pop[b].g
}

// Test-only exports for the external-package tests, which reach
// benchutil's GA instances (benchutil imports ga).
var (
	ReferenceOptimize = referenceOptimize
	OptimizeCounted   = optimize
	SmallProblem      = testProblem
	MeshSwitchProblem = meshSwitchProblem
)

// TestPopulationSortMatchesSortSlice pins the property Optimize's
// exactness rests on: sortPopulation permutes a population exactly as
// sort.Slice with the same less function does. Neither sort is stable, so
// the order of equal fitness values is the one thing that could differ;
// fitness values come from a few levels with many ties, plus +Inf
// (infeasible genomes) and NaN.
func TestPopulationSortMatchesSortSlice(t *testing.T) {
	rng := newRand(5)
	genomes := make([]slot, 80)
	index := func(g *slot) int {
		for i := range genomes {
			if &genomes[i] == g {
				return i
			}
		}
		return -1
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(len(genomes))
		levels := 1 + rng.Intn(8)
		got := make([]scored, n)
		for i := range got {
			f := float64(rng.Intn(levels))
			switch rng.Intn(16) {
			case 0:
				f = math.Inf(1)
			case 1:
				f = math.NaN()
			}
			got[i] = scored{&genomes[i], f}
		}
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool { return want[i].f < want[j].f })
		sortPopulation(got)
		for i := range got {
			if got[i].g != want[i].g {
				t.Fatalf("trial %d (n %d, %d levels): position %d holds genome %d, sort.Slice put genome %d there",
					trial, n, levels, i, index(got[i].g), index(want[i].g))
			}
		}
	}
}
