package ga

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
)

func testProblem(t *testing.T) (*Problem, Genome) {
	t.Helper()
	m := mesh.New(hw.Config3())
	pp := 7
	base, err := placement.Partition(m, 8, pp)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]recompute.StageProfile, pp)
	for s := 0; s < pp; s++ {
		profiles[s] = recompute.StageProfile{
			Options: []recompute.Option{
				{CkptBytesPerMB: 30e9, ExtraBwdTime: 0},
				{CkptBytesPerMB: 15e9, ExtraBwdTime: 0.08},
				{CkptBytesPerMB: 5e9, ExtraBwdTime: 0.2},
			},
			Retained:    pp - s,
			FwdTime:     1,
			BwdTime:     2,
			ModelPBytes: 300e9,
			LocalBytes:  70e9 * 8,
		}
	}
	plan, err := recompute.GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	prob := &Problem{
		Mesh:          m,
		Profiles:      profiles,
		BaseRegions:   base,
		PipelineBytes: []float64{1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9},
	}
	return prob, SeedFromPlan(plan, pp)
}

func TestOptimizeImprovesOrMatchesSeed(t *testing.T) {
	prob, seed := testProblem(t)
	seedFit := prob.Fitness(seed)
	res, err := Optimize(prob, seed, Options{Population: 16, Generations: 40, Omega: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness > seedFit+1e-9 {
		t.Errorf("GA best (%g) worse than seed (%g)", res.BestFitness, seedFit)
	}
	if len(res.History) == 0 {
		t.Fatal("no convergence history")
	}
}

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	prob, seed := testProblem(t)
	res, err := Optimize(prob, seed, Options{Population: 16, Generations: 30, Omega: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]+1e-12 {
			t.Fatalf("history regressed at gen %d: %g > %g", i, res.History[i], res.History[i-1])
		}
	}
}

func TestElitistConvergesFaster(t *testing.T) {
	// Fig 24b: ω=1 (pure elitism) reaches its plateau in fewer generations
	// than ω=0 (pure tournament).
	prob, seed := testProblem(t)
	gensTo95 := func(omega float64) int {
		res, err := Optimize(prob, seed, Options{Population: 24, Generations: 60, Omega: omega, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		final := res.History[len(res.History)-1]
		for g, f := range res.History {
			if f <= final*1.02 {
				return g
			}
		}
		return len(res.History)
	}
	elitist := gensTo95(1.0)
	tournament := gensTo95(0.0)
	if elitist > tournament+10 {
		t.Errorf("elitist (%d gens) should converge at least as fast as tournament (%d)", elitist, tournament)
	}
}

func TestFitnessInfeasibleGenome(t *testing.T) {
	prob, seed := testProblem(t)
	bad := seed.Clone()
	bad.Pairs = []recompute.MemPair{{Sender: 0, Helper: 99, Bytes: 1e9}}
	if !math.IsInf(prob.Fitness(bad), 1) {
		t.Error("out-of-range pair should be infeasible")
	}
	bad2 := seed.Clone()
	bad2.RecompChoice[0] = 99
	if !math.IsInf(prob.Fitness(bad2), 1) {
		t.Error("out-of-range recompute choice should be infeasible")
	}
}

func TestOptimizeRejectsBadInput(t *testing.T) {
	if _, err := Optimize(&Problem{}, Genome{}, Options{}); err == nil {
		t.Error("empty problem should fail")
	}
	prob, seed := testProblem(t)
	if _, err := Optimize(prob, Genome{RecompChoice: []int{0}}, Options{}); err == nil {
		t.Error("shape-mismatched seed should fail")
	}
	// A seed permutation outside the base regions: crossover indexes its
	// per-region scratch with Perm entries, so Optimize must reject it.
	for _, r := range []int{len(prob.BaseRegions), -1} {
		bad := seed.Clone()
		bad.Perm[len(bad.Perm)-1] = r
		if _, err := Optimize(prob, bad, Options{Population: 8, Generations: 4, Workers: 1}); err == nil {
			t.Errorf("seed permutation entry %d should fail", r)
		}
	}
}

func TestMutatePreservesPermutationProperty(t *testing.T) {
	prob, seed := testProblem(t)
	f := func(seedVal int64, rounds uint8) bool {
		g := seed.Clone()
		rng := newRand(seedVal)
		for i := 0; i < int(rounds%32); i++ {
			prob.mutate(&g, rng)
		}
		seen := map[int]bool{}
		for _, r := range g.Perm {
			if r < 0 || r >= len(prob.BaseRegions) || seen[r] {
				return false
			}
			seen[r] = true
		}
		return len(g.RecompChoice) == prob.stages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverPreservesPermutationProperty(t *testing.T) {
	prob, seed := testProblem(t)
	f := func(seedVal int64) bool {
		a, b := seed.Clone(), seed.Clone()
		rng := newRand(seedVal)
		prob.mutate(&b, rng)
		prob.mutate(&b, rng)
		prob.crossover(&a, b, make([]bool, len(prob.BaseRegions)), rng)
		seen := map[int]bool{}
		for _, r := range a.Perm {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		return len(seen) == prob.stages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, seed := testProblem(t)
	c := seed.Clone()
	if len(seed.RecompChoice) > 0 {
		c.RecompChoice[0] = 999
		if seed.RecompChoice[0] == 999 {
			t.Error("clone shares RecompChoice")
		}
	}
	c.Perm[0], c.Perm[1] = c.Perm[1], c.Perm[0]
	if seed.Perm[0] == c.Perm[0] {
		t.Error("clone shares Perm")
	}
}

// newRand avoids importing math/rand in multiple test helpers.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// meshSwitchProblem is testProblem on the §VI-E mesh-switch wafer.
func meshSwitchProblem(t *testing.T) (*Problem, Genome) {
	t.Helper()
	m := mesh.New(hw.Config3MeshSwitch())
	pp := 6
	base, err := placement.Partition(m, 8, pp)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make([]recompute.StageProfile, pp)
	for s := 0; s < pp; s++ {
		profiles[s] = recompute.StageProfile{
			Options: []recompute.Option{
				{CkptBytesPerMB: 30e9, ExtraBwdTime: 0},
				{CkptBytesPerMB: 15e9, ExtraBwdTime: 0.08},
				{CkptBytesPerMB: 5e9, ExtraBwdTime: 0.2},
			},
			Retained:    pp - s,
			FwdTime:     1,
			BwdTime:     2,
			ModelPBytes: 300e9,
			LocalBytes:  70e9 * 8,
		}
	}
	plan, err := recompute.GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	prob := &Problem{
		Mesh:          m,
		Profiles:      profiles,
		BaseRegions:   base,
		PipelineBytes: []float64{1e9, 1e9, 1e9, 1e9, 1e9},
	}
	return prob, SeedFromPlan(plan, pp)
}

// TestOptimizeDeterministicAcrossWorkers pins the §IV-D contract that
// fitness scoring is a pure function of the genome: Workers=1 and
// Workers=8 must produce identical convergence histories and best
// genomes, on both the square and mesh-switch meshes, even though the
// genomes are spread over the per-worker scratches differently.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*Problem, Genome)
	}{
		{"mesh2d", testProblem},
		{"meshswitch", meshSwitchProblem},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob1, seed := tc.build(t)
			prob8, _ := tc.build(t)
			r1, err := Optimize(prob1, seed, Options{Population: 20, Generations: 25, Omega: 0.5, Seed: 11, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			r8, err := Optimize(prob8, seed, Options{Population: 20, Generations: 25, Omega: 0.5, Seed: 11, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if len(r1.History) != len(r8.History) {
				t.Fatalf("history lengths differ: %d vs %d", len(r1.History), len(r8.History))
			}
			for g := range r1.History {
				if r1.History[g] != r8.History[g] {
					t.Fatalf("generation %d: Workers=1 best %x, Workers=8 best %x", g, r1.History[g], r8.History[g])
				}
			}
			if r1.BestFitness != r8.BestFitness {
				t.Fatalf("best fitness differs: %x vs %x", r1.BestFitness, r8.BestFitness)
			}
		})
	}
}

// TestFitnessScratchMatchesDirect asserts that a reused scratch prices
// every genome bit-identically to the reference t_max × (1 + GlobalCost)
// over the materialised placement.
func TestFitnessScratchMatchesDirect(t *testing.T) {
	prob, seed := testProblem(t)
	scratch := prob.newScratch()
	rng := newRand(17)
	g := seed.Clone()
	feasible := 0
	for i := 0; i < 400; i++ {
		prob.mutate(&g, rng)
		want := math.Inf(1)
		if tmax, ok := prob.maxStageTime(g, prob.newScratch()); ok {
			feasible++
			want = tmax * (1 + placement.GlobalCost(prob.Mesh, prob.Placement(g), placement.Workload{
				PipelineBytes: prob.PipelineBytes,
				Pairs:         g.Pairs,
			}))
		}
		if got := prob.fitness(g, scratch); got != want {
			t.Fatalf("mutation %d: scratch fitness %x, reference %x", i, got, want)
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible genome among the mutations; the comparison is vacuous")
	}
}

// TestFitnessZeroAlloc pins the scoring hot path: on an interned mesh, one
// reused scratch prices 600 distinct mutated genomes without allocating.
func TestFitnessZeroAlloc(t *testing.T) {
	prob, seed := testProblem(t)
	rng := newRand(29)
	var genomes []Genome
	seen := map[string]bool{}
	for g := seed.Clone(); len(genomes) < 600; {
		prob.mutate(&g, rng)
		if key := fmt.Sprint(g); !seen[key] {
			seen[key] = true
			genomes = append(genomes, g.Clone())
		}
	}
	scratch := prob.newScratch()
	i := 0
	allocs := testing.AllocsPerRun(len(genomes)-1, func() {
		prob.fitness(genomes[i], scratch)
		i++
	})
	if allocs != 0 {
		t.Fatalf("fitness allocates %.1f times per genome, want 0", allocs)
	}
}

// TestFitnessRejectsOutOfRangePerm pins the satellite fix: permutations
// indexing outside BaseRegions are infeasible, not silently aliased through
// a modulo wraparound.
func TestFitnessRejectsOutOfRangePerm(t *testing.T) {
	prob, seed := testProblem(t)
	for _, bad := range []int{len(prob.BaseRegions), -1, 999} {
		g := seed.Clone()
		g.Perm[0] = bad
		if !math.IsInf(prob.Fitness(g), 1) {
			t.Errorf("perm entry %d should be infeasible", bad)
		}
	}
	short := seed.Clone()
	short.Perm = short.Perm[:len(short.Perm)-1]
	if !math.IsInf(prob.Fitness(short), 1) {
		t.Error("shape-mismatched perm should be infeasible")
	}
}

// TestOp4OperatorDistribution pins the restructured Op4: with pairs
// present, the 50% pair branch removes with p=0.3 and resizes otherwise —
// and never resizes a pair it is about to delete. The exact counts are
// pinned for a fixed seed so an accidental reordering of the RNG draws
// shows up immediately.
func TestOp4OperatorDistribution(t *testing.T) {
	prob, seed := testProblem(t)
	seed.Pairs = []recompute.MemPair{
		{Sender: 0, Helper: 5, Bytes: 3e9},
		{Sender: 1, Helper: 4, Bytes: 2e9},
		{Sender: 2, Helper: 6, Bytes: 1e9},
	}
	rng := newRand(42)
	const rounds = 5000
	removes, resizes, adds, other := 0, 0, 0, 0
	for i := 0; i < rounds; i++ {
		g := seed.Clone()
		before := len(g.Pairs)
		var bytesBefore []float64
		for _, pr := range g.Pairs {
			bytesBefore = append(bytesBefore, pr.Bytes)
		}
		prob.op4(&g, rng)
		switch {
		case len(g.Pairs) == before-1:
			removes++
		case len(g.Pairs) == before+1:
			adds++
		case len(g.Pairs) == before:
			changed := false
			for j, pr := range g.Pairs {
				if pr.Bytes != bytesBefore[j] {
					changed = true
				}
			}
			if changed {
				resizes++
			} else {
				other++
			}
		}
	}
	// The pair branch fires ~50% of the time; of that, ~30% removes.
	if frac := float64(removes) / float64(removes+resizes); frac < 0.25 || frac > 0.35 {
		t.Errorf("remove fraction of pair mutations = %.3f, want ≈0.30", frac)
	}
	if removes+resizes+adds+other != rounds {
		t.Fatalf("operator accounting lost rounds: %d+%d+%d+%d != %d", removes, resizes, adds, other, rounds)
	}
	// Seeded pin (seed 42, 5000 rounds): recompute deliberately if the
	// operator's RNG draw order changes.
	if removes != 776 || resizes != 1739 || adds != 2174 || other != 311 {
		t.Errorf("operator distribution (remove=%d resize=%d add=%d none=%d) drifted from the pinned seed-42 counts (776/1739/2174/311)",
			removes, resizes, adds, other)
	}
}
