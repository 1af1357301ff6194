package sched

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/predictor"
)

// goldenSearch runs the golden configuration (Llama2-30B on Config3,
// Workers=1, DisableCache, Seed=7) under the given predictor.
func goldenSearch(t *testing.T, pred predictor.Predictor) (*Result, engine.Config, error) {
	t.Helper()
	cfg := engine.Config{
		Wafer:     hw.Config3(),
		Spec:      model.Llama2_30B(),
		Workload:  model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048},
		Predictor: pred,
	}
	res, err := Search(cfg.Wafer, cfg.Spec, cfg.Workload, pred, Options{Workers: 1, DisableCache: true, Seed: 7})
	return res, cfg, err
}

// TestRecomputeProfilesMatchEvaluatedStages pins GCMR's input to what the
// evaluator scores: for every unpruned candidate of the golden search that
// sim.Evaluate reports on, each stage profile's FwdTime/BwdTime equals, bit
// for bit, the report's FwdCompute/BwdCompute for that stage. The golden
// search's other unpruned candidates fail the evaluator's memory check.
func TestRecomputeProfilesMatchEvaluatedStages(t *testing.T) {
	res, cfg, err := goldenSearch(t, testPred)
	if err != nil {
		t.Fatal(err)
	}
	m := mesh.New(cfg.Wafer)
	checked := 0
	for _, c := range res.Explored {
		if c.Pruned {
			continue
		}
		if c.Err != nil {
			if !strings.Contains(c.Err.Error(), " OOM: ") {
				t.Fatalf("tp=%d pp=%d %v: %v", c.TP, c.PP, c.Collective, c.Err)
			}
			continue
		}
		cfg.TP, cfg.PP, cfg.Collective = c.TP, c.PP, c.Collective
		sm, err := engine.NewStageModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		profiles, _, err := buildRecomputePlan(cfg, sm, m, Options{})
		if err != nil {
			t.Fatalf("tp=%d pp=%d %v: %v", c.TP, c.PP, c.Collective, err)
		}
		if len(c.Report.PerStage) != len(profiles) {
			t.Fatalf("tp=%d pp=%d: %d evaluated stages, %d profiles", c.TP, c.PP, len(c.Report.PerStage), len(profiles))
		}
		for s, p := range profiles {
			got := c.Report.PerStage[s]
			if math.Float64bits(p.FwdTime) != math.Float64bits(got.FwdCompute) ||
				math.Float64bits(p.BwdTime) != math.Float64bits(got.BwdCompute) {
				t.Errorf("tp=%d pp=%d %v stage %d: profile fwd/bwd %v/%v, evaluated %v/%v",
					c.TP, c.PP, c.Collective, s, p.FwdTime, p.BwdTime, got.FwdCompute, got.BwdCompute)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no evaluated candidate to check")
	}
}

// nanPredictor reports a NaN latency for every operator.
type nanPredictor struct{ predictor.Predictor }

func (p nanPredictor) Predict(op opgraph.Op, die predictor.DieContext) predictor.Estimate {
	est := p.Predictor.Predict(op, die)
	est.Latency = math.NaN()
	return est
}

// TestInvalidLatencyRejectedBeforeGCMR: GCMR profiles its stages from the
// same stage model the evaluator scores, so an invalid predictor latency is
// rejected before it reaches GCMR, for every unpruned candidate.
func TestInvalidLatencyRejectedBeforeGCMR(t *testing.T) {
	res, _, err := goldenSearch(t, nanPredictor{testPred})
	if err == nil {
		t.Fatal("search with a NaN-latency predictor succeeded")
	}
	unpruned := 0
	for _, c := range res.Explored {
		if c.Pruned {
			continue
		}
		unpruned++
		if c.Err == nil || !strings.HasPrefix(c.Err.Error(), "engine: predictor returned invalid latency for ") {
			t.Errorf("tp=%d pp=%d %v: err = %v, want the invalid-latency error", c.TP, c.PP, c.Collective, c.Err)
		}
	}
	if unpruned == 0 {
		t.Fatal("no unpruned candidate to check")
	}
}
