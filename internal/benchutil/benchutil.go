// Package benchutil provides the shared substrates of the search
// inner-loop benchmarks, so the CI bench-smoke gate (the root package's
// testing.B benchmarks) and the recorded perf trajectory (cmd/bench)
// measure exactly the same workloads and cannot drift apart.
package benchutil

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/recompute"
	"repro/internal/sched"
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
// pareto frontier per stage, seeded from the GCMR plan. Every stage's
// checkpoints fit locally, so the plan has no Mem_pairs.
func GAProblem() (*ga.Problem, ga.Genome, error) {
	return gaProblem(8, 7, 30e9, 300e9)
}

// GAPairsProblem builds the GA instance that starts with Mem_pairs, as a
// deep Table II pipeline does: 16 stages on Config3, 3 dies per stage, the
// same frontier shape as GAProblem's, and 86 GB of checkpoint room per
// stage. Without recomputation the first 1F1B stages overflow it, and the
// GCMR plan pairs them with later stages' spare room in 13 Mem_pairs.
// It fails unless the plan has at least 8 Mem_pairs.
func GAPairsProblem() (*ga.Problem, ga.Genome, error) {
	prob, seed, err := gaProblem(3, 16, 10e9, 124e9)
	if err == nil && len(seed.Pairs) < 8 {
		err = fmt.Errorf("benchutil: the pp-16 GA instance's GCMR plan has %d Mem_pairs, want at least 8", len(seed.Pairs))
	}
	return prob, seed, err
}

// gaProblem builds a pp-stage GA instance on Config3 with tp dies per
// stage. Stage s retains pp−s micro-batches; its options checkpoint
// ckptPerMB, half of it and a sixth of it per micro-batch, at 0, 0.08 and
// 0.2 extra backward time, and it holds modelBytes of model state in its
// dies' 70 GB each.
func gaProblem(tp, pp int, ckptPerMB, modelBytes float64) (*ga.Problem, ga.Genome, error) {
	m := mesh.New(hw.Config3())
	base, err := placement.Partition(m, tp, pp)
	if err != nil {
		return nil, ga.Genome{}, err
	}
	profiles := make([]recompute.StageProfile, pp)
	for s := 0; s < pp; s++ {
		profiles[s] = recompute.StageProfile{
			Options: []recompute.Option{
				{CkptBytesPerMB: ckptPerMB, ExtraBwdTime: 0},
				{CkptBytesPerMB: ckptPerMB / 2, ExtraBwdTime: 0.08},
				{CkptBytesPerMB: ckptPerMB / 6, ExtraBwdTime: 0.2},
			},
			Retained:    pp - s,
			FwdTime:     1,
			BwdTime:     2,
			ModelPBytes: modelBytes,
			LocalBytes:  70e9 * float64(tp),
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

// CoExploration runs the co-exploration whose canonical record the render
// benchmark and its allocation pin measure: Llama2-30B on Config3 at the
// service's default workload (batch 64, micro-batch 1, sequence 4096),
// greedy, seed 1, one worker. Its record holds 32 candidates in 133,969
// bytes.
func CoExploration() (*core.ExploreResult, error) {
	fw := core.New()
	fw.Options = sched.Options{Seed: 1, Workers: 1}
	return fw.Explore([]hw.WaferConfig{hw.Config3()}, model.Llama2_30B(),
		model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 4096})
}
