package search_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/canon/canontest"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/sim"
)

// referenceFingerprint is search.Fingerprint as it was written with fmt,
// kept verbatim: the appenders must write exactly its bytes, or every
// persisted evaluation-cache key would change.
func referenceFingerprint(cfg engine.Config, m *mesh.Mesh, strat sim.Strategy) string {
	var b strings.Builder
	b.Grow(512)
	// engine.Config: all value fields; the predictor contributes its
	// identity (distinct predictors may produce distinct estimates).
	fmt.Fprintf(&b, "w=%+v|s=%+v|wl=%+v|tp=%d|pp=%d|c=%d|p=%d",
		cfg.Wafer, cfg.Spec, cfg.Workload, cfg.TP, cfg.PP, cfg.Collective, search.PredictorID(cfg.Predictor))
	if m != nil {
		if fk := m.FaultKey(); fk != "" {
			fmt.Fprintf(&b, "|f=%s", fk)
		}
	}
	fmt.Fprintf(&b, "|pw=%d", strat.PipelineWafers)
	if strat.Placement != nil {
		b.WriteString("|pl=")
		for _, r := range strat.Placement.Regions {
			fmt.Fprintf(&b, "%v;", r.Dies)
		}
	}
	if strat.Recompute != nil {
		fmt.Fprintf(&b, "|rc=%v,%v,%v,%v,%g,%g",
			strat.Recompute.Choice, strat.Recompute.StageCkptBytes,
			strat.Recompute.ExtraBwd, strat.Recompute.Pairs,
			strat.Recompute.OverflowBytes, strat.Recompute.MaxStageTime)
	}
	if len(strat.Allocations) > 0 {
		fmt.Fprintf(&b, "|al=%v", strat.Allocations)
	}
	return b.String()
}

// TestFingerprintMatchesReference holds Fingerprint to the fmt reference on
// 10,000 seeded configurations and strategies whose every field is filled
// through reflect, keyed with no mesh, a healthy mesh and a faulty one, and
// on every candidate of both golden searches.
func TestFingerprintMatchesReference(t *testing.T) {
	faulty := mesh.New(hw.Config3())
	faulty.InjectLinkFault(mesh.Link{From: mesh.DieID{X: 1, Y: 0}, To: mesh.DieID{X: 2, Y: 0}}, 0.5)
	faulty.InjectDieFault(mesh.DieID{X: 3, Y: 2}, 1)
	meshes := []*mesh.Mesh{nil, mesh.New(hw.Config3()), faulty}
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	check := func(name string, cfg engine.Config, strat sim.Strategy) {
		t.Helper()
		for _, m := range meshes {
			if got, want := search.Fingerprint(cfg, m, strat), referenceFingerprint(cfg, m, strat); got != want {
				t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// The predictor is an interface the filler cannot draw; it enters
		// the key as its registry ID.
		var cfg engine.Config
		canontest.Fill(rng, &cfg.Wafer)
		canontest.Fill(rng, &cfg.Spec)
		canontest.Fill(rng, &cfg.Workload)
		canontest.Fill(rng, &cfg.TP)
		canontest.Fill(rng, &cfg.PP)
		canontest.Fill(rng, &cfg.Collective)
		if rng.Intn(2) == 0 {
			cfg.Predictor = pred
		}
		var strat sim.Strategy
		canontest.Fill(rng, &strat)
		check(fmt.Sprintf("case %d", i), cfg, strat)
	}
	if testing.Short() {
		return
	}
	w, spec := hw.Config3(), model.Llama2_30B()
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	for _, ga := range []bool{false, true} {
		res, err := sched.Search(w, spec, work, pred, sched.Options{Workers: 1, DisableCache: true, Seed: 7, UseGA: ga})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range res.Explored {
			cfg := engine.Config{Wafer: w, Spec: spec, Workload: work, TP: c.TP, PP: c.PP, Collective: c.Collective, Predictor: pred}
			check(fmt.Sprintf("golden search (GA %v) candidate %d", ga, i), cfg, c.Strategy)
		}
	}
}
