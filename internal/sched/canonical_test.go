package sched

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/canon/canontest"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
)

// referenceRenderCandidate is RenderCandidate as it was written with fmt,
// kept verbatim: the appenders must write exactly its bytes.
func referenceRenderCandidate(b *strings.Builder, c Candidate) {
	fmt.Fprintf(b, "tp=%d pp=%d coll=%v pruned=%v err=%v\n", c.TP, c.PP, c.Collective, c.Pruned, c.Err)
	fmt.Fprintf(b, "report=%+v\n", c.Report)
	fmt.Fprintf(b, "pipelineWafers=%d\n", c.Strategy.PipelineWafers)
	if c.Strategy.Placement != nil {
		fmt.Fprintf(b, "placement=%v\n", c.Strategy.Placement.Regions)
	}
	if c.Strategy.Recompute != nil {
		fmt.Fprintf(b, "recompute=%+v\n", *c.Strategy.Recompute)
	}
	fmt.Fprintf(b, "allocations=%v\n", c.Strategy.Allocations)
}

// referenceCanonical is (*Result).Canonical as it was written with fmt.
func referenceCanonical(r *Result) string {
	var b strings.Builder
	for _, c := range r.Explored {
		referenceRenderCandidate(&b, c)
	}
	return b.String()
}

// goldenSearches runs the two golden searches (Llama2-30B on Config3,
// batch 64, sequence 2048, seed 7), greedy and GA-refined.
func goldenSearches(t *testing.T) []*Result {
	t.Helper()
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	var out []*Result
	for _, ga := range []bool{false, true} {
		res, err := Search(hw.Config3(), model.Llama2_30B(), work, pred, Options{Workers: 1, DisableCache: true, Seed: 7, UseGA: ga})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestRenderCandidateMatchesReference holds RenderCandidate and
// (*Result).Canonical to the fmt reference on 10,000 seeded records whose
// every field is filled through reflect (special floats, negative map-key
// coordinates, nil and empty maps and slices, nil pointers, multi-line
// errors, out-of-range collectives) and on every candidate of both golden
// searches. A record of several candidates checks that the map-key scratch
// is reused without leaking from one candidate into the next.
func TestRenderCandidateMatchesReference(t *testing.T) {
	check := func(name string, r *Result) {
		t.Helper()
		for i, c := range r.Explored {
			var got, want strings.Builder
			RenderCandidate(&got, c)
			referenceRenderCandidate(&want, c)
			if got.String() != want.String() {
				t.Fatalf("%s candidate %d:\n got %q\nwant %q", name, i, got.String(), want.String())
			}
		}
		if got, want := r.Canonical(), referenceCanonical(r); got != want {
			t.Fatalf("%s record:\n got %q\nwant %q", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var r Result
		canontest.Fill(rng, &r)
		check(fmt.Sprintf("case %d", i), &r)
	}
	if testing.Short() {
		return
	}
	for i, r := range goldenSearches(t) {
		check(fmt.Sprintf("golden search %d", i), r)
	}
}
