// Package benchutil provides the shared substrates of the search
// inner-loop benchmarks, so the CI bench-smoke gate (the root package's
// testing.B benchmarks) and the recorded perf trajectory (cmd/bench)
// measure exactly the same workloads and cannot drift apart.
package benchutil

import (
	"math/rand"

	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
)

// ScaleWafer is a 12×12-die wafer (Config3 die and links) — the
// multi-wafer-class substrate where the annealer's per-iteration
// asymptotics dominate (pp up to 128 single-die stages).
func ScaleWafer() *mesh.Mesh {
	w := hw.Config3()
	w.DiesX, w.DiesY = 12, 12
	return mesh.New(w)
}

// AnnealSubstrate builds the annealer benchmark inputs: a pp-stage
// partition of the mesh (tp dies per stage) with unit per-edge pipeline
// volumes and npairs long-range Mem_pairs stressing the punished Eq 2
// term.
func AnnealSubstrate(m *mesh.Mesh, tp, pp, npairs int) ([]mesh.DieID, placement.Workload, error) {
	base, err := placement.Partition(m, tp, pp)
	if err != nil {
		return nil, placement.Workload{}, err
	}
	anchors := make([]mesh.DieID, pp)
	for i := range base {
		anchors[i] = base[i].Anchor()
	}
	pipe := make([]float64, pp-1)
	for i := range pipe {
		pipe[i] = 1e9
	}
	w := placement.Workload{PipelineBytes: pipe}
	for i := 0; i < npairs; i++ {
		w.Pairs = append(w.Pairs, recompute.MemPair{Sender: i, Helper: pp - 1 - i, Bytes: 2e9})
	}
	return anchors, w, nil
}

// AnnealBatchCycle returns one annealer iteration over a Scorer — price a
// random two-anchor swap against the committed state and commit it on a
// 1-in-8 coin (the late-anneal acceptance shape, where most proposals are
// rejected). The closure is the measured body of the priced annealer
// benchmarks and their zero-alloc guard; both harnesses share it so they
// cannot drift apart.
func AnnealBatchCycle(sc *placement.Scorer, pp int, rng *rand.Rand) func() {
	return func() {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			return
		}
		sc.SwapCost(a, b)
		if rng.Intn(8) == 0 {
			sc.Commit(a, b)
		}
	}
}

// AnnealSwapCycleFull is the PR3-era annealer iteration: propose a random
// two-anchor swap, score it by a full Eq 2 re-evaluation, and keep or undo
// it on a coin flip.
func AnnealSwapCycleFull(m *mesh.Mesh, anchors []mesh.DieID, w placement.Workload, occupied *mesh.LinkSet, pp int, rng *rand.Rand) func() {
	return func() {
		a, b := rng.Intn(pp), rng.Intn(pp)
		if a == b {
			return
		}
		anchors[a], anchors[b] = anchors[b], anchors[a]
		placement.EvalAnchors(m, anchors, w, occupied)
		if rng.Intn(2) != 0 {
			anchors[a], anchors[b] = anchors[b], anchors[a]
		}
	}
}

// GAProblem builds the GA-generation benchmark instance: a 7-stage
// pipeline on Config3 (8 dies per stage) with a three-option recompute
// pareto frontier per stage, seeded from the GCMR plan.
func GAProblem() (*ga.Problem, ga.Genome, error) {
	m := mesh.New(hw.Config3())
	const pp = 7
	base, err := placement.Partition(m, 8, pp)
	if err != nil {
		return nil, ga.Genome{}, err
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
		return nil, ga.Genome{}, err
	}
	pipe := make([]float64, pp-1)
	for i := range pipe {
		pipe[i] = 1e9
	}
	prob := &ga.Problem{
		Mesh:          m,
		Profiles:      profiles,
		BaseRegions:   base,
		PipelineBytes: pipe,
	}
	return prob, ga.SeedFromPlan(plan, pp), nil
}
