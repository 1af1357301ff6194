package baselines

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
)

var testPred = predictor.NewLookupTable(predictor.TileLevel{})

func work() model.Workload {
	return model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
}

func TestMegatronGPUBasic(t *testing.T) {
	r, err := MegatronGPU(hw.BlackwellUltraNode(), model.Llama2_30B(), work())
	if err != nil {
		t.Fatal(err)
	}
	if r.TP != 8 {
		t.Errorf("Megatron TP = %d, want 8", r.TP)
	}
	if r.IterationTime <= 0 || r.Throughput <= 0 {
		t.Fatal("non-positive results")
	}
	if r.Throughput > hw.BlackwellUltraNode().PeakFLOPS() {
		t.Error("throughput exceeds peak")
	}
}

func TestMegatronGPUGrowsPPForBigModels(t *testing.T) {
	small, err := MegatronGPU(hw.BlackwellUltraNode(), model.Llama2_30B(), work())
	if err != nil {
		t.Fatal(err)
	}
	big, err := MegatronGPU(hw.MegatronCluster(4), model.Llama3_405B(), work())
	if err != nil {
		t.Fatal(err)
	}
	if big.PP <= small.PP {
		t.Errorf("405B should need deeper pipeline: %d vs %d", big.PP, small.PP)
	}
	// §VI-F: Megatron must spread Llama3-405B over at least 3 servers.
	if big.TP*big.PP < 3*8 {
		t.Errorf("405B occupies %d GPUs, paper says at least 3 8-GPU servers", big.TP*big.PP)
	}
}

func TestMegatronGPURejectsOversized(t *testing.T) {
	if _, err := MegatronGPU(hw.BlackwellUltraNode(), model.DeepseekV3_671B(), work()); err == nil {
		t.Fatal("DeepSeek-671B (10.7 TB) cannot fit 8 GPUs")
	}
}

func TestMegatronGPURecomputesUnderPressure(t *testing.T) {
	big := model.Workload{GlobalBatch: 512, MicroBatch: 8, SeqLen: 8192}
	r, err := MegatronGPU(hw.BlackwellUltraNode(), model.GPT_175B(), big)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Recomputed {
		t.Error("large-batch GPT-175B should trigger recomputation on GPUs")
	}
}

func TestMegatronWaferUsesMegatronHeuristic(t *testing.T) {
	res, err := MegatronWafer(hw.Config3(), model.Llama2_30B(), work(), testPred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TP != 8 {
		t.Errorf("MG-wafer TP = %d, want Megatron's 8", res.Best.TP)
	}
}

func TestCerebrasBasic(t *testing.T) {
	r, err := Cerebras(hw.Config3(), model.Llama2_30B(), work(), testPred)
	if err != nil {
		t.Fatal(err)
	}
	if r.IterationTime <= 0 || r.Throughput <= 0 {
		t.Fatal("non-positive Cerebras results")
	}
	if r.Throughput > hw.Config3().PeakFLOPS() {
		t.Error("Cerebras throughput exceeds wafer peak")
	}
}

func TestCerebrasSmallBatchPenalty(t *testing.T) {
	// §V-C: weight streaming suffers at small batch — throughput per
	// sample degrades as batch shrinks below the die count.
	small, err := Cerebras(hw.Config3(), model.Llama2_30B(),
		model.Workload{GlobalBatch: 8, MicroBatch: 1, SeqLen: 2048}, testPred)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Cerebras(hw.Config3(), model.Llama2_30B(),
		model.Workload{GlobalBatch: 512, MicroBatch: 1, SeqLen: 2048}, testPred)
	if err != nil {
		t.Fatal(err)
	}
	if small.Throughput >= large.Throughput {
		t.Errorf("small batch (%.3g) should underperform large batch (%.3g)",
			small.Throughput, large.Throughput)
	}
}

func TestFrameworkOrdering(t *testing.T) {
	// Timeloop (die-level only) must not beat the full WATOS stack.
	spec := model.Llama2_30B()
	w := hw.Config3()
	tl, errT := RunFramework(Timeloop, w, spec, work(), testPred)
	wa, errW := RunFramework(WATOS, w, spec, work(), testPred)
	if errW != nil {
		t.Fatal(errW)
	}
	if errT == nil && tl.Best.Report.Throughput > wa.Best.Report.Throughput*1.01 {
		t.Errorf("Timeloop (%.3g) beat WATOS (%.3g)", tl.Best.Report.Throughput, wa.Best.Report.Throughput)
	}
}

func TestFrameworksAllNamed(t *testing.T) {
	for _, f := range Frameworks() {
		if s := f.String(); s == fmt.Sprintf("Framework(%d)", int(f)) {
			t.Errorf("framework %d renders the unnamed fallback %q", int(f), s)
		}
	}
	if len(Frameworks()) != 8 {
		t.Fatalf("expected 8 frameworks, got %d", len(Frameworks()))
	}
	if Frameworks()[7] != WATOS {
		t.Error("WATOS should be last (Fig 20 order)")
	}
}

// TestFig1Breakdown checks the GPU-cluster split Fig 1 plots: compute
// (bubble included) and exposed communication, both positive.
func TestFig1Breakdown(t *testing.T) {
	r, err := MegatronGPU(hw.NVL72GB300(708e12), model.Llama3_70B(), work())
	if err != nil {
		t.Fatal(err)
	}
	if r.ComputeTime <= 0 || r.ExposedCommTime <= 0 {
		t.Fatalf("breakdown = %v, %v; want positive", r.ComputeTime, r.ExposedCommTime)
	}
}
