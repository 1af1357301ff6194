package sched

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/predictor"
)

// goldenSHA is the SHA-256 of the canonical rendering of a full Llama2-30B
// Config3 search (Workers=1, DisableCache, Seed=7), captured from the
// pre-dense-refactor map-based implementation. The dense-indexing and
// plan-caching rewrite must reproduce every explored candidate — reports,
// placements, recomputation plans, allocations and errors — byte for byte.
const (
	goldenSHA = "5c80c7261eda54f60c324983cddefee40780c291f49f21a255ee7365d1413bb5"
	goldenLen = 129915
)

// TestSearchReportGolden asserts the full exploration record of a search is
// byte-identical to the pre-refactor implementation's output.
func TestSearchReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full search in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		// The SHA pins amd64 float bits; architectures that fuse
		// multiply-adds (e.g. arm64 FMA) legitimately differ in low-order
		// bits. The determinism and equivalence tests still cover them.
		t.Skipf("golden SHA captured on amd64, running on %s", runtime.GOARCH)
	}
	// The SHA must be reproduced with the annealer pricing through
	// placement.Scorer, which it does on a wafer with interned routes. If the
	// golden wafer ever fell past the interning bound, this run would
	// exercise only the full-evaluation pricer and silently weaken the claim.
	if mesh.New(hw.Config3()).InternedMaskArena() == nil {
		t.Fatal("the golden wafer has no interned routes; the golden SHA must pin the Scorer placement pricing")
	}
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	res, err := Search(hw.Config3(), model.Llama2_30B(), work, pred,
		Options{Workers: 1, DisableCache: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TP != 4 || res.Best.PP != 7 {
		t.Errorf("best = (TP=%d, PP=%d, %v), want (TP=4, PP=7, bi-ring)", res.Best.TP, res.Best.PP, res.Best.Collective)
	}
	all := res.Canonical()
	if len(all) != goldenLen {
		t.Errorf("rendered exploration record is %d bytes, want %d", len(all), goldenLen)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all))); got != goldenSHA {
		t.Errorf("exploration record sha256 = %s, want %s (reports diverged from the pre-refactor implementation)", got, goldenSHA)
	}
}
