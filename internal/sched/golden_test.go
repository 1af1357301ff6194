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

// goldenGASHA and goldenGALen pin the same search with the GA on: every
// candidate's GA-refined recomputation plan, placement and allocations.
const (
	goldenGASHA = "ca854a39685ed44e97f5d874553e459da3987f6649cef0f9a1c9178d19554fbb"
	goldenGALen = 130174
)

// TestSearchReportGolden asserts the full exploration record of a search is
// byte-identical to the pre-refactor implementation's output.
func TestSearchReportGolden(t *testing.T) {
	// The SHA must be reproduced with the annealer pricing through
	// placement.Scorer, which it does on a wafer with interned routes. If the
	// golden wafer ever fell past the interning bound, this run would
	// exercise only the full-evaluation pricer and silently weaken the claim.
	if mesh.New(hw.Config3()).InternedMaskArena() == nil {
		t.Fatal("the golden wafer has no interned routes; the golden SHA must pin the Scorer placement pricing")
	}
	checkGolden(t, Options{Workers: 1, DisableCache: true, Seed: 7}, goldenLen, goldenSHA)
}

// TestSearchReportGoldenGA pins the GA path (§IV-D) the same way, at one
// and at four workers: the record must not depend on how the candidates
// fan out over the pool.
func TestSearchReportGoldenGA(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			res := checkGolden(t, Options{Workers: workers, DisableCache: true, Seed: 7, UseGA: true}, goldenGALen, goldenGASHA)
			// Four final strategies carry Mem_pairs, so the record covers
			// the GA's plans and the allocations made from them.
			withPairs := 0
			for _, c := range res.Explored {
				if c.Strategy.Recompute != nil && len(c.Strategy.Recompute.Pairs) > 0 {
					withPairs++
				}
			}
			if withPairs != 4 {
				t.Errorf("%d explored strategies carry Mem_pairs, want 4", withPairs)
			}
		})
	}
}

// checkGolden runs the golden configuration (Llama2-30B on Config3, batch
// 64, sequence 2048) under opts and compares its canonical record's length
// and SHA-256 with the pinned values; the best strategy must be TP 4, PP 7.
func checkGolden(t *testing.T, opts Options, wantLen int, wantSHA string) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("full search in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		// The SHA pins amd64 float bits; architectures that fuse
		// multiply-adds (e.g. arm64 FMA) legitimately differ in low-order
		// bits. The determinism and equivalence tests still cover them.
		t.Skipf("golden SHA captured on amd64, running on %s", runtime.GOARCH)
	}
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	res, err := Search(hw.Config3(), model.Llama2_30B(), work, pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.TP != 4 || res.Best.PP != 7 {
		t.Errorf("best = (TP=%d, PP=%d, %v), want (TP=4, PP=7, bi-ring)", res.Best.TP, res.Best.PP, res.Best.Collective)
	}
	all := res.Canonical()
	if len(all) != wantLen {
		t.Errorf("rendered exploration record is %d bytes, want %d", len(all), wantLen)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(all))); got != wantSHA {
		t.Errorf("exploration record sha256 = %s, want %s (reports diverged from the pre-refactor implementation)", got, wantSHA)
	}
	return res
}
