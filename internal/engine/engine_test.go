package engine

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/opgraph"
	"repro/internal/placement"
	"repro/internal/predictor"
)

var testPred = predictor.NewLookupTable(predictor.TileLevel{})

func cfgFor(tp, pp int) Config {
	return Config{
		Wafer:      hw.Config3(),
		Spec:       model.Llama2_30B(),
		Workload:   model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 2048},
		TP:         tp,
		PP:         pp,
		Collective: collective.BiRing,
		Predictor:  testPred,
	}
}

func stageCosts(t *testing.T, tp, pp int, extraBwd []float64) ([]StageCompute, Config) {
	t.Helper()
	cfg := cfgFor(tp, pp)
	m := mesh.New(cfg.Wafer)
	pl, err := placement.Serpentine(m, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewStageModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, computes, err := StageCosts(cfg, sm, m, pl, extraBwd)
	if err != nil {
		t.Fatal(err)
	}
	return computes, cfg
}

func TestStageCostsShape(t *testing.T) {
	computes, cfg := stageCosts(t, 4, 8, nil)
	if len(computes) != 8 {
		t.Fatalf("got %d stages, want 8", len(computes))
	}
	totalLayers := 0
	for _, c := range computes {
		totalLayers += c.Layers
		if c.FwdCompute <= 0 || c.BwdCompute <= c.FwdCompute {
			t.Errorf("stage times wrong: %+v", c)
		}
		if c.FwdCollective <= 0 {
			t.Error("TP>1 should have collective time")
		}
	}
	if totalLayers != cfg.Spec.Layers {
		t.Errorf("layers sum %d != %d", totalLayers, cfg.Spec.Layers)
	}
}

func TestTP1HasNoCollective(t *testing.T) {
	computes, _ := stageCosts(t, 1, 4, nil)
	for _, c := range computes {
		if c.FwdCollective != 0 {
			t.Errorf("TP=1 stage has collective time %v", c.FwdCollective)
		}
	}
}

func TestExtraBwdApplied(t *testing.T) {
	extra := make([]float64, 8)
	extra[2] = 0.123
	computes, _ := stageCosts(t, 4, 8, extra)
	if computes[2].RecomputeExtra != 0.123 {
		t.Errorf("recompute extra not applied: %v", computes[2].RecomputeExtra)
	}
	if computes[3].RecomputeExtra != 0 {
		t.Error("extra leaked to other stages")
	}
}

func TestLargerTPSlowsCollectives(t *testing.T) {
	c2, _ := stageCosts(t, 2, 8, nil)
	c8, _ := stageCosts(t, 8, 7, nil)
	// Per-layer collective time grows with the TP group size.
	perLayer2 := c2[0].FwdCollective / float64(c2[0].Layers)
	perLayer8 := c8[0].FwdCollective / float64(c8[0].Layers)
	if perLayer8 <= perLayer2 {
		t.Errorf("TP=8 collective per layer (%v) should exceed TP=2 (%v)", perLayer8, perLayer2)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cfg := cfgFor(0, 4)
	if err := cfg.Validate(); err == nil {
		t.Error("tp=0 should fail")
	}
	cfg = cfgFor(4, 100) // more stages than layers (Llama2-30B has 60)
	if err := cfg.Validate(); err == nil {
		t.Error("pp>layers should fail")
	}
	cfg = cfgFor(4, 4)
	cfg.Predictor = nil
	if err := cfg.Validate(); err == nil {
		t.Error("nil predictor should fail")
	}
}

func TestBestPathTimeAvoidsBusyLinks(t *testing.T) {
	m := mesh.New(hw.Config3())
	a, b := mesh.DieID{X: 0, Y: 0}, mesh.DieID{X: 2, Y: 2}
	clean := bestPathTime(m, a, b, 1e9, nil)
	busy := make([]float64, m.NumLinks())
	for _, id := range m.XYPathIDs(a, b) {
		busy[id] = 1
	}
	avoided := bestPathTime(m, a, b, 1e9, busy)
	// The YX alternative is clean, so the penalty should be avoided
	// entirely or mostly.
	if avoided > clean*1.6 {
		t.Errorf("path selection failed to avoid busy links: %v vs %v", avoided, clean)
	}
	if bestPathTime(m, a, a, 1e9, nil) != 0 {
		t.Error("same-die transfer should be free")
	}
}

func TestBestPathTimeReroutesAroundFault(t *testing.T) {
	m := mesh.New(hw.Config3())
	a, b := mesh.DieID{X: 0, Y: 0}, mesh.DieID{X: 3, Y: 0}
	// Kill both shortest paths' shared first link; straight-line pairs
	// have a single shortest path, so the engine must fall back to
	// adaptive rerouting.
	m.InjectLinkFault(mesh.Link{From: mesh.DieID{X: 1, Y: 0}, To: mesh.DieID{X: 2, Y: 0}}, 1)
	got := bestPathTime(m, a, b, 1e9, nil)
	if math.IsInf(got, 1) {
		t.Fatal("expected rerouted path, got +Inf")
	}
}

func TestGCMRCostFnIncludesComm(t *testing.T) {
	cfg := cfgFor(4, 8)
	m := mesh.New(cfg.Wafer)
	fn := GCMRCostFn(cfg, m)
	// attn-proj has an all-reduce; its recompute cost must include comm.
	gr, err := opgraph.Build(cfg.Spec, cfg.TP, 1, cfg.Workload.SeqLen)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range gr.Ops {
		c := fn(op)
		if c.Latency <= 0 {
			t.Errorf("%s: non-positive recompute latency", op.Name)
		}
		if op.AllReduceBytes > 0 && c.CommTime <= 0 {
			t.Errorf("%s: missing Eq-1 comm term", op.Name)
		}
	}
}
