package sched

import (
	"reflect"
	"testing"

	"repro/internal/collective"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
)

var testPred = predictor.NewLookupTable(predictor.TileLevel{})

func smallWork() model.Workload {
	return model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 2048}
}

func TestSearchFindsFeasibleStrategy(t *testing.T) {
	res, err := Search(hw.Config3(), model.Llama2_30B(), smallWork(), testPred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best candidate")
	}
	b := res.Best
	if b.TP*b.PP > hw.Config3().Dies() {
		t.Errorf("best tp*pp = %d exceeds dies", b.TP*b.PP)
	}
	if b.Report.Throughput <= 0 {
		t.Error("non-positive throughput")
	}
	if len(res.Explored) == 0 {
		t.Error("no exploration records")
	}
}

func TestEarlyPruningRejectsOversizedModels(t *testing.T) {
	// DeepSeek-671B modelP (10.7 TB) exceeds one wafer (3.92 TB).
	_, err := Search(hw.Config3(), model.DeepseekV3_671B(), smallWork(), testPred, Options{})
	if err == nil {
		t.Fatal("expected top-level prune for DeepSeek-671B on one wafer")
	}
}

func TestEarlyPruningCountsCandidates(t *testing.T) {
	res, err := Search(hw.Config3(), model.GPT_175B(), smallWork(), testPred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrunedCount == 0 {
		t.Error("GPT-175B should prune small tp×pp candidates (modelP ~2.8 TB)")
	}
	for _, c := range res.Explored {
		if c.Pruned && c.Err == nil {
			t.Error("pruned candidate without reason")
		}
	}
}

func TestFixedParallelism(t *testing.T) {
	res, err := Search(hw.Config3(), model.Llama2_30B(), smallWork(), testPred, Options{FixedTP: 4, FixedPP: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TP != 4 || res.Best.PP != 8 {
		t.Fatalf("fixed search returned TP=%d PP=%d", res.Best.TP, res.Best.PP)
	}
	if len(res.Explored) != 1 {
		t.Errorf("fixed search explored %d candidates, want 1", len(res.Explored))
	}
}

func TestRecomputeEnablesTighterFits(t *testing.T) {
	// GPT-175B at a moderately large batch requires recomputation; with it
	// disabled, the feasible set shrinks and throughput drops.
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	with, err := Search(hw.Config3(), model.GPT_175B(), work, testPred, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(hw.Config3(), model.GPT_175B(), work, testPred, Options{DisableRecompute: true})
	if err == nil && without.Best.Report.Throughput > with.Best.Report.Throughput {
		t.Error("disabling recomputation should never improve the optimum")
	}
}

func TestOddTPRequiresOddCapableCollective(t *testing.T) {
	res, err := Search(hw.Config3(), model.Llama2_30B(), smallWork(), testPred, Options{
		Collectives: []collective.Algorithm{collective.BiRing, collective.RingBiOdd},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Explored {
		if c.TP > 2 && c.TP%2 == 1 && c.Collective == collective.BiRing {
			t.Errorf("odd TP=%d explored with plain bi-ring", c.TP)
		}
	}
}

func TestGAImprovesOrMatchesGreedy(t *testing.T) {
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	greedy, err := Search(hw.Config3(), model.Llama3_70B(), work, testPred, Options{FixedTP: 4, FixedPP: 14})
	if err != nil {
		t.Fatal(err)
	}
	withGA, err := Search(hw.Config3(), model.Llama3_70B(), work, testPred, Options{FixedTP: 4, FixedPP: 14, UseGA: true})
	if err != nil {
		t.Fatal(err)
	}
	if withGA.Best.Report.Throughput < greedy.Best.Report.Throughput*0.95 {
		t.Errorf("GA (%.3g) should not regress far below greedy (%.3g)",
			withGA.Best.Report.Throughput, greedy.Best.Report.Throughput)
	}
}

// TestLoneParallelismPin pins the meaning of one pin alone: FixedTP fixes
// the tensor degree and explores every pipeline depth the default search
// gives it, FixedPP fixes the pipeline depth and explores every tensor
// degree the default search pairs with it.
func TestLoneParallelismPin(t *testing.T) {
	points := func(opts Options) [][2]int {
		t.Helper()
		res, err := Search(hw.Config3(), model.Llama2_30B(), smallWork(), testPred, opts)
		if err != nil {
			t.Fatal(err)
		}
		var out [][2]int
		for _, c := range res.Explored {
			out = append(out, [2]int{c.TP, c.PP})
		}
		return out
	}
	var tp2, pp4 [][2]int
	for _, pt := range points(Options{}) {
		if pt[0] == 2 {
			tp2 = append(tp2, pt)
		}
		if pt[1] == 4 {
			pp4 = append(pp4, pt)
		}
	}
	if len(tp2) < 2 || len(pp4) < 2 {
		t.Fatalf("default search has too few TP-2 (%v) or PP-4 (%v) points", tp2, pp4)
	}
	if got := points(Options{FixedTP: 2}); !reflect.DeepEqual(got, tp2) {
		t.Errorf("lone FixedTP 2 explored %v, want the default search's TP-2 points %v", got, tp2)
	}
	if got := points(Options{FixedPP: 4}); !reflect.DeepEqual(got, pp4) {
		t.Errorf("lone FixedPP 4 explored %v, want the default search's PP-4 points %v", got, pp4)
	}
}

func TestFactorisationsRespectBounds(t *testing.T) {
	for _, pair := range factorisations(56, 56, 60, Options{}) {
		tp, pp := pair[0], pair[1]
		if tp*pp > 56 {
			t.Errorf("(%d,%d) exceeds 56 dies", tp, pp)
		}
		if pp > 60 {
			t.Errorf("pp=%d exceeds layer count", pp)
		}
		if tp&(tp-1) != 0 {
			t.Errorf("tp=%d not a power of two", tp)
		}
	}
}

func TestMultiWaferSearch(t *testing.T) {
	node := hw.MultiWafer(hw.Config3(), 4, 1.8e12)
	res, err := Search(node, model.Llama3_405B(), smallWork(), testPred, Options{
		FixedTP: 8, FixedPP: 14, PipelineWafers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Report.DP < 2 {
		t.Errorf("4-wafer node with 2 pipeline wafers should have DP>=2, got %d", res.Best.Report.DP)
	}
}

func TestSearchRejectsInvalidWorkload(t *testing.T) {
	if _, err := Search(hw.Config3(), model.Llama2_30B(), model.Workload{}, testPred, Options{}); err == nil {
		t.Fatal("invalid workload should fail")
	}
}
