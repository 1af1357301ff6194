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

// TestOptimizeMatchesReference pins Optimize's genome arenas and sort
// against the test-only copy of the loop that cloned every child, sorted
// with sort.Slice and scored into fresh slices. On the package's small
// problem and on BenchmarkGAGeneration's instance, each also with every
// genome infeasible (where both must fail), over seeds 1–5,
// ω ∈ {0, 0.25, 0.5, 1}, populations {1, 2, 24, 32} and 1 or 2 workers,
// both must return the same best fitness and history bits, the same best
// genome and the same error.
func TestOptimizeMatchesReference(t *testing.T) {
	benchProb, benchSeed, err := benchutil.GAProblem()
	if err != nil {
		t.Fatal(err)
	}
	smallProb, smallSeed := ga.SmallProblem(t)
	for _, tc := range []struct {
		name    string
		prob    *ga.Problem
		seed    ga.Genome
		wantErr bool
	}{
		{"small", smallProb, smallSeed, false},
		{"GAProblem", benchProb, benchSeed, false},
		{"small-infeasible", infeasible(smallProb), smallSeed, true},
		{"GAProblem-infeasible", infeasible(benchProb), benchSeed, true},
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
							want, wantErr := ga.ReferenceOptimize(tc.prob, tc.seed, opts)
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
