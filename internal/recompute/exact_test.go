package recompute

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/predictor"
)

// scanOption is one cell of the reference DP: every option, in order, with
// a strict < so the lowest index wins a tie.
func scanOption(q []int, st, tail []float64, m int) (float64, int32) {
	best, bestOpt := inf, int32(-1)
	for i := range q {
		if q[i] > m || tail[m-q[i]] >= inf {
			continue
		}
		if v := math.Max(tail[m-q[i]], st[i]); v < best {
			best, bestOpt = v, int32(i)
		}
	}
	return best, bestOpt
}

// TestBestOptionMatchesScan checks the crossing search cell by cell against
// the scan on coarse monotone inputs, where equal quanta, equal stage
// times, tail plateaus, tail/stage-time ties and infeasible cells are
// common.
func TestBestOptionMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ties, infeasible, cells int
	for c := 0; c < 2000; c++ {
		n := 1 + rng.Intn(12)
		q := make([]int, n)
		st := make([]float64, n)
		q[0] = rng.Intn(budgetQuanta + 40)
		st[0] = float64(rng.Intn(6))
		for i := 1; i < n; i++ {
			q[i] = max(q[i-1]-rng.Intn(3)*rng.Intn(30), 0)
			st[i] = st[i-1] + float64(rng.Intn(2))
		}
		tail := make([]float64, budgetQuanta+1)
		v := inf
		for m := range tail {
			if rng.Intn(16) == 0 {
				if v == inf {
					v = float64(4 + rng.Intn(8))
				} else if v > 0 {
					v -= float64(rng.Intn(2))
				}
			}
			tail[m] = v
		}
		for m := range tail {
			wantT, want := scanOption(q, st, tail, m)
			gotT, got := bestOption(q, st, tail, m)
			if got != want || math.Float64bits(gotT) != math.Float64bits(wantT) {
				t.Fatalf("case %d m=%d q=%v st=%v: got (%v, %d), want (%v, %d)", c, m, q, st, gotT, got, wantT, want)
			}
			cells++
			if want < 0 {
				infeasible++
				continue
			}
			for i := int(want) + 1; i < n; i++ {
				if q[i] <= m && math.Max(tail[m-q[i]], st[i]) == wantT {
					ties++
					break
				}
			}
		}
	}
	if ties < cells/20 || infeasible < cells/20 {
		t.Errorf("weak coverage: %d tied and %d infeasible of %d cells", ties, infeasible, cells)
	}
}

// randomProfiles builds p stages whose fronts ParetoFront cuts from coarse
// random points, with a global budget drawn around the minimal need so the
// OOM and no-feasible-plan errors occur beside feasible plans.
func randomProfiles(rng *rand.Rand, p int) []StageProfile {
	profiles := make([]StageProfile, p)
	var minNeed float64
	for s := range profiles {
		raw := make([]Option, 1+rng.Intn(12))
		for i := range raw {
			raw[i] = Option{
				CkptBytesPerMB: float64(1+rng.Intn(16)) * 1e9,
				ExtraBwdTime:   float64(rng.Intn(8)) * 0.25,
			}
		}
		front := ParetoFront(raw)
		retained := 1 + rng.Intn(p)
		minNeed += front[len(front)-1].CkptBytesPerMB * float64(retained)
		profiles[s] = StageProfile{
			Options:     front,
			Retained:    retained,
			FwdTime:     float64(1 + rng.Intn(2)),
			BwdTime:     float64(2 * (1 + rng.Intn(2))),
			ModelPBytes: float64(rng.Intn(4)) * 1e9,
		}
	}
	slack := []float64{0.98, 1, 1.01, 1.05, 1.2, 1.5, 2, 4}[rng.Intn(8)]
	for s := range profiles {
		share := minNeed * slack / float64(p) * (0.5 + rng.Float64())
		profiles[s].LocalBytes = profiles[s].ModelPBytes + share
	}
	return profiles
}

// TestGCMRMatchesReference cross-checks GCMR against the scan DP on random
// fronts over 1–64 stages: every Plan field, MaxStageTime in float bits,
// and the error text.
func TestGCMRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	outcomes := map[string]int{}
	for c := 0; c < 1000; c++ {
		profiles := randomProfiles(rng, 1+rng.Intn(64))
		want, wantErr := referenceGCMR(profiles)
		got, gotErr := GCMR(profiles)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("case %d (%d stages): error %v, want %v", c, len(profiles), gotErr, wantErr)
		}
		if wantErr != nil {
			outcomes[strings.SplitN(wantErr.Error(), " —", 2)[0]]++
			continue
		}
		outcomes["ok"]++
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.MaxStageTime) != math.Float64bits(want.MaxStageTime) {
			t.Fatalf("case %d (%d stages):\n got %+v\nwant %+v", c, len(profiles), got, want)
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, o := range []string{"ok", "recompute: OOM", "recompute: no feasible recomputation plan"} {
		if outcomes[o] < 20 {
			t.Errorf("weak coverage: %d cases ended %q (all: %v)", outcomes[o], o, outcomes)
		}
	}
}

// TestParetoFrontMatchesReference cross-checks the front on coarse random
// options, where duplicates and equal memory or time are common.
func TestParetoFrontMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c := 0; c < 1000; c++ {
		opts := make([]Option, rng.Intn(40))
		for i := range opts {
			opts[i] = Option{CkptBytesPerMB: float64(rng.Intn(10)), ExtraBwdTime: float64(rng.Intn(10))}
		}
		if got, want := ParetoFront(opts), referenceParetoFront(opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d %v: front %v, want %v", c, opts, got, want)
		}
	}
}

// TestBuildOptionsMatchesReference cross-checks BuildOptions against the
// per-subset enumeration over the model zoo, TP 1–32, three sequence
// lengths and several stage depths, comparing both fields in float bits.
func TestBuildOptionsMatchesReference(t *testing.T) {
	w := hw.Config3()
	die := predictor.Context(w)
	cost := func(op opgraph.Op) OpCost {
		var comm float64
		if op.AllReduceBytes > 0 {
			comm = w.D2DLinkLatency + op.AllReduceBytes/w.LinkBandwidth()
		}
		return OpCost{Latency: predictor.Analytical{}.Predict(op, die).Latency, CommTime: comm}
	}
	zoo := append(append(model.EvaluationModels(), model.EmergingModels()...), model.UltraLargeModels()...)
	cases := 0
	for _, spec := range zoo {
		for tp := 1; tp <= 32; tp *= 2 {
			for _, seq := range []int{1024, 2048, 8192} {
				g, err := opgraph.Build(spec, tp, 1, seq)
				if err != nil {
					continue
				}
				for _, layers := range []int{1, 3, 7, 40} {
					want, wantErr := referenceBuildOptions(g, cost, layers)
					got, gotErr := BuildOptions(g, cost, layers)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s tp=%d seq=%d layers=%d: error %v, want %v", spec.Name, tp, seq, layers, gotErr, wantErr)
					}
					if len(got) != len(want) {
						t.Fatalf("%s tp=%d seq=%d layers=%d: %d options, want %d", spec.Name, tp, seq, layers, len(got), len(want))
					}
					for i := range want {
						if math.Float64bits(got[i].CkptBytesPerMB) != math.Float64bits(want[i].CkptBytesPerMB) ||
							math.Float64bits(got[i].ExtraBwdTime) != math.Float64bits(want[i].ExtraBwdTime) {
							t.Fatalf("%s tp=%d seq=%d layers=%d option %d: %+v, want %+v", spec.Name, tp, seq, layers, i, got[i], want[i])
						}
					}
					cases++
				}
			}
		}
	}
	if cases < 500 {
		t.Errorf("only %d cases built", cases)
	}
}
