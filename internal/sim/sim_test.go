package sim

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/pipeline"
	"repro/internal/placement"
	"repro/internal/predictor"
)

var testPred = predictor.NewLookupTable(predictor.TileLevel{})

func testCfg(tp, pp int) engine.Config {
	return engine.Config{
		Wafer:      hw.Config3(),
		Spec:       model.Llama2_30B(),
		Workload:   model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 2048},
		TP:         tp,
		PP:         pp,
		Collective: collective.BiRing,
		Predictor:  testPred,
	}
}

func evaluate(t *testing.T, tp, pp int) Report {
	t.Helper()
	cfg := testCfg(tp, pp)
	m := mesh.New(cfg.Wafer)
	pl, err := placement.Serpentine(m, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(cfg, m, Strategy{Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestEvaluateBasicSanity(t *testing.T) {
	rep := evaluate(t, 4, 8)
	if rep.IterationTime <= 0 {
		t.Fatal("non-positive iteration time")
	}
	if rep.Throughput <= 0 {
		t.Fatal("non-positive throughput")
	}
	if rep.BubbleFraction < 0 || rep.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction = %v", rep.BubbleFraction)
	}
	if rep.ComputeUtilization <= 0 || rep.ComputeUtilization > 1 {
		t.Fatalf("compute utilization = %v", rep.ComputeUtilization)
	}
	if rep.DP < 1 || rep.MicroBatches < 1 {
		t.Fatalf("dp=%d n=%d", rep.DP, rep.MicroBatches)
	}
	if len(rep.PerDieMemory) == 0 {
		t.Fatal("no per-die memory map")
	}
}

func TestThroughputNeverExceedsPeak(t *testing.T) {
	for _, c := range [][2]int{{2, 8}, {4, 8}, {4, 14}, {8, 7}} {
		rep := evaluate(t, c[0], c[1])
		peak := hw.Config3().PeakFLOPS()
		if rep.Throughput > peak {
			t.Errorf("tp=%d pp=%d throughput %.3g exceeds wafer peak %.3g", c[0], c[1], rep.Throughput, peak)
		}
	}
}

func TestMemoryRespectsCapacity(t *testing.T) {
	rep := evaluate(t, 4, 8)
	capacity := hw.Config3().DieDRAM()
	for d, used := range rep.PerDieMemory {
		if used > capacity*1.0001 {
			t.Errorf("die %v over capacity: %.1f GB", d, used/1e9)
		}
	}
}

func TestMoreStagesMoreBubbles(t *testing.T) {
	// Small workload so full checkpointing fits even at PP=14.
	run := func(tp, pp int) Report {
		cfg := testCfg(tp, pp)
		cfg.Workload = model.Workload{GlobalBatch: 16, MicroBatch: 1, SeqLen: 1024}
		m := mesh.New(cfg.Wafer)
		pl, err := placement.Serpentine(m, tp, pp)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Evaluate(cfg, m, Strategy{Placement: pl})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	shallow := run(4, 4)
	deep := run(4, 14)
	if deep.BubbleFraction <= shallow.BubbleFraction {
		t.Errorf("deeper pipeline should bubble more: pp=4 %v vs pp=14 %v",
			shallow.BubbleFraction, deep.BubbleFraction)
	}
}

func TestEvaluateRejectsNilPlacement(t *testing.T) {
	cfg := testCfg(2, 2)
	m := mesh.New(cfg.Wafer)
	if _, err := Evaluate(cfg, m, Strategy{}); err == nil {
		t.Fatal("nil placement should fail")
	}
}

func TestEvaluateOOMForHugeModelWithoutRecompute(t *testing.T) {
	cfg := testCfg(4, 8)
	cfg.Spec = model.GPT_175B()
	cfg.Workload = model.Workload{GlobalBatch: 256, MicroBatch: 4, SeqLen: 2048}
	m := mesh.New(cfg.Wafer)
	pl, _ := placement.Serpentine(m, 4, 8)
	if _, err := Evaluate(cfg, m, Strategy{Placement: pl}); err == nil {
		t.Fatal("expected OOM for GPT-175B without recomputation at large batch")
	}
}

// TestNoRecomputeChargesClampedMicroBatch pins the no-recompute checkpoint
// charge to the stage model the evaluator prices. Llama2-30B at TP 2, PP 4
// on Config3 runs 7 replicas, so the per-replica batch of 16/7 = 2 clamps
// the micro-batch from 4 to 2: each stage's dies hold their modelP plus the
// checkpoints of micro-batches of 2. Charged at the workload's micro-batch
// of 4, die (0,0) would need 70.8 GB of its 70 GB.
func TestNoRecomputeChargesClampedMicroBatch(t *testing.T) {
	cfg := testCfg(2, 4)
	cfg.Workload = model.Workload{GlobalBatch: 16, MicroBatch: 4, SeqLen: 512}
	m := mesh.New(cfg.Wafer)
	pl, err := placement.Serpentine(m, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Evaluate(cfg, m, Strategy{Placement: pl})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DP != 7 || rep.MicroBatches != 1 {
		t.Fatalf("dp=%d n=%d, want 7 replicas of 1 micro-batch", rep.DP, rep.MicroBatches)
	}
	g, err := opgraph.Build(cfg.Spec, 2, 2, 512)
	if err != nil {
		t.Fatal(err)
	}
	layers, err := memory.SplitLayers(cfg.Spec.Layers, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, region := range pl.Regions {
		modelP := memory.ModelPPerDie(cfg.Spec, layers[s], 2, memory.StageExtraParams(cfg.Spec, s, 4))
		retained := pipeline.RetainedMicroBatches(4, 1, s)
		ckpt := (g.CheckpointBytes() + g.BoundaryBytes()) * float64(layers[s]) * float64(retained) * 2
		want := modelP + ckpt/float64(len(region.Dies))
		for _, d := range region.Dies {
			if got := rep.PerDieMemory[d]; got != want {
				t.Errorf("stage %d die %v holds %.4g bytes, want %.4g", s, d, got, want)
			}
		}
	}
}

func TestMultiWaferDPIncreasesReplicas(t *testing.T) {
	cfg := testCfg(4, 8)
	cfg.Wafer = hw.MultiWafer(hw.Config3(), 4, 1.8e12)
	m := mesh.New(cfg.Wafer)
	pl, _ := placement.Serpentine(m, 4, 8)
	rep, err := Evaluate(cfg, m, Strategy{Placement: pl, PipelineWafers: 1})
	if err != nil {
		t.Fatal(err)
	}
	single := evaluate(t, 4, 8)
	if rep.DP <= single.DP {
		t.Errorf("4-wafer node should have more DP replicas: %d vs %d", rep.DP, single.DP)
	}
}

func TestLowerW2WBandwidthSlower(t *testing.T) {
	run := func(bw float64) Report {
		cfg := testCfg(8, 14)
		cfg.Spec = model.Llama3_405B()
		// Small workload so full checkpointing fits without a recompute plan.
		cfg.Workload = model.Workload{GlobalBatch: 8, MicroBatch: 1, SeqLen: 1024}
		cfg.Wafer = hw.MultiWafer(hw.Config3(), 4, bw)
		m := mesh.New(cfg.Wafer)
		base, err := placement.Partition(m, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		regions := make([]placement.Region, 14)
		for s := range regions {
			regions[s] = base[s%7]
		}
		rep, err := Evaluate(cfg, m, Strategy{
			Placement:      &placement.Placement{Regions: regions},
			PipelineWafers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fast := run(1.8e12)
	slow := run(400e9)
	if slow.IterationTime <= fast.IterationTime {
		t.Errorf("lower W2W bandwidth should be slower: %v vs %v", slow.IterationTime, fast.IterationTime)
	}
}
