package ga_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/ga"
	"repro/internal/recompute"
)

// TestOptimizeMatchesReference pins Optimize's genome arenas, its
// inherited fitness parts, its handed-over elites and its sort against the
// test-only copy of the loop that cloned every child, sorted with
// sort.Slice and priced every genome in full into fresh slices. On the
// package's small problem, on BenchmarkGAGeneration's two instances (the
// second starts with 13 Mem_pairs) and on the mesh-switch problem, each
// also with every genome infeasible (where both must fail), over seeds
// 1–5, ω ∈ {0, 0.25, 0.5, 1}, populations {1, 2, 24, 32} and 1 or 2
// workers, both must return the same best fitness and history bits, the
// same best genome and the same error.
func TestOptimizeMatchesReference(t *testing.T) {
	benchProb, benchSeed, err := benchutil.GAProblem()
	if err != nil {
		t.Fatal(err)
	}
	pairsProb, pairsSeed, err := benchutil.GAPairsProblem()
	if err != nil {
		t.Fatal(err)
	}
	smallProb, smallSeed := ga.SmallProblem(t)
	switchProb, switchSeed := ga.MeshSwitchProblem(t)
	for _, tc := range []struct {
		name    string
		prob    *ga.Problem
		seed    ga.Genome
		wantErr bool
	}{
		{"small", smallProb, smallSeed, false},
		{"GAProblem", benchProb, benchSeed, false},
		{"pairs", pairsProb, pairsSeed, false},
		{"meshswitch", switchProb, switchSeed, false},
		{"small-infeasible", infeasible(smallProb), smallSeed, true},
		{"GAProblem-infeasible", infeasible(benchProb), benchSeed, true},
		{"pairs-infeasible", infeasible(pairsProb), pairsSeed, true},
		{"meshswitch-infeasible", infeasible(switchProb), switchSeed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				for _, omega := range []float64{0, 0.25, 0.5, 1} {
					for _, pop := range []int{1, 2, 24, 32} {
						for _, workers := range []int{1, 2} {
							opts := ga.Options{Population: pop, Generations: 60, Omega: omega, Seed: seed, Workers: workers}
							got, gotErr := ga.Optimize(tc.prob, tc.seed, opts)
							if (gotErr != nil) != tc.wantErr {
								t.Fatalf("%+v: error %v, want an error: %v", opts, gotErr, tc.wantErr)
							}
							want, _, wantErr := ga.ReferenceOptimize(tc.prob, tc.seed, opts)
							if msg := resultsDiffer(got, gotErr, want, wantErr); msg != "" {
								t.Fatalf("%+v: %s", opts, msg)
							}
						}
					}
				}
			}
		})
	}
}

// TestOptimizeComponentCounts pins where Optimize's saving comes from, on
// GAProblem and the Mem_pair instance at the search's GA defaults
// (population 32, 60 generations, ω 0.5), seeds 1–5. Optimize prices t_max
// once per genome of the initial population and once per child whose
// RecompChoice or Pairs differ from its first tournament parent's, exactly
// as many as the reference loop counts. It prices Eq 2 at least for every
// feasible genome whose Perm or Pairs changed (the initial population
// included) and at most for every feasible genome: a child that keeps its
// parent's Perm and Pairs is priced when that parent was infeasible. Both
// take fewer prices than genomes scored, and neither count depends on the
// worker count.
func TestOptimizeComponentCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*ga.Problem, ga.Genome, error)
	}{
		{"GAProblem", benchutil.GAProblem},
		{"pairs", benchutil.GAPairsProblem},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob, seed, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			var total ga.ReferenceCounts
			var tmaxTotal, costTotal int
			for s := int64(1); s <= 5; s++ {
				opts := ga.Options{Population: 32, Generations: 60, Omega: 0.5, Seed: s, Workers: 1}
				_, want, err := ga.ReferenceOptimize(prob, seed, opts)
				if err != nil {
					t.Fatal(err)
				}
				_, tmax, cost, err := ga.OptimizeCounted(prob, seed, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Workers = 2
				if _, tmax2, cost2, err := ga.OptimizeCounted(prob, seed, opts); err != nil || tmax2 != tmax || cost2 != cost {
					t.Fatalf("seed %d: 2 workers took %d t_max and %d Eq 2 prices (error %v), 1 worker %d and %d",
						s, tmax2, cost2, err, tmax, cost)
				}
				if wantTmax := opts.Population + want.TmaxChanged; tmax != wantTmax {
					t.Fatalf("seed %d: %d t_max prices, want %d (population %d + %d children with changed RecompChoice or Pairs)",
						s, tmax, wantTmax, opts.Population, want.TmaxChanged)
				}
				if cost < want.FeasibleCostChanged || cost > want.Feasible {
					t.Fatalf("seed %d: %d Eq 2 prices, want between %d (feasible with changed Perm or Pairs) and %d (feasible)",
						s, cost, want.FeasibleCostChanged, want.Feasible)
				}
				if tmax >= want.Scored || cost >= want.Scored {
					t.Fatalf("seed %d: %d t_max and %d Eq 2 prices for %d genomes scored, want fewer", s, tmax, cost, want.Scored)
				}
				total.Scored += want.Scored
				total.Feasible += want.Feasible
				tmaxTotal += tmax
				costTotal += cost
			}
			t.Logf("seeds 1–5: %d genomes scored, %d feasible; %d t_max prices (%.1f%% of genomes), %d Eq 2 prices (%.1f%% of feasible genomes)",
				total.Scored, total.Feasible, tmaxTotal, 100*float64(tmaxTotal)/float64(total.Scored),
				costTotal, 100*float64(costTotal)/float64(total.Feasible))
		})
	}
}

// infeasible returns prob with no local checkpoint capacity on any stage,
// so every genome's checkpoints overflow and Optimize must fail.
func infeasible(prob *ga.Problem) *ga.Problem {
	out := *prob
	out.Profiles = append([]recompute.StageProfile(nil), prob.Profiles...)
	for s := range out.Profiles {
		out.Profiles[s].LocalBytes = 0
	}
	return &out
}

// resultsDiffer describes the first difference between two Optimize
// results, or returns "" when the errors match and the results agree to the
// bit. slices.Equal treats nil and empty genome slices as equal.
func resultsDiffer(got *ga.Result, gotErr error, want *ga.Result, wantErr error) string {
	if a, b := fmt.Sprint(gotErr), fmt.Sprint(wantErr); a != b {
		return "error " + a + ", reference " + b
	}
	if gotErr != nil {
		return ""
	}
	if math.Float64bits(got.BestFitness) != math.Float64bits(want.BestFitness) {
		return "best fitness differs from the reference's"
	}
	if len(got.History) != len(want.History) {
		return "history length differs from the reference's"
	}
	for g := range got.History {
		if math.Float64bits(got.History[g]) != math.Float64bits(want.History[g]) {
			return "history differs from the reference's"
		}
	}
	if !slices.Equal(got.Best.RecompChoice, want.Best.RecompChoice) ||
		!slices.Equal(got.Best.Perm, want.Best.Perm) ||
		!slices.EqualFunc(got.Best.Pairs, want.Best.Pairs, samePair) {
		return "best genome differs from the reference's"
	}
	return ""
}

// samePair compares two Mem_pairs to the bit.
func samePair(a, b recompute.MemPair) bool {
	return a.Sender == b.Sender && a.Helper == b.Helper && math.Float64bits(a.Bytes) == math.Float64bits(b.Bytes)
}
