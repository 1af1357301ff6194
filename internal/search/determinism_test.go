// Determinism contract of the concurrent evaluation runtime: a parallel
// sched.Search must return a Result identical to a sequential one, both with
// the memoization cache enabled and disabled. The external test package lets
// this file import sched (which itself builds on search).
package search_test

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
)

var detPred = predictor.NewLookupTable(predictor.TileLevel{})

func detWork() model.Workload {
	return model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 2048}
}

func TestSearchDeterministicAcrossWorkerCounts(t *testing.T) {
	base, err := sched.Search(hw.Config3(), model.Llama2_30B(), detWork(), detPred,
		sched.Options{Workers: 1, DisableCache: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := sched.Search(hw.Config3(), model.Llama2_30B(), detWork(), detPred,
			sched.Options{Workers: workers, DisableCache: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, par) {
			t.Fatalf("Workers=%d Result differs from Workers=1", workers)
		}
	}
}

func TestSearchCachedMatchesUncached(t *testing.T) {
	uncached, err := sched.Search(hw.Config3(), model.Llama2_30B(), detWork(), detPred,
		sched.Options{Workers: 1, DisableCache: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Run twice with the shared caches: the second run is served from
	// memoized candidates and must still be identical.
	search.DefaultCache().Reset()
	sched.ResetCache()
	warm, err := sched.Search(hw.Config3(), model.Llama2_30B(), detWork(), detPred,
		sched.Options{Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := sched.Search(hw.Config3(), model.Llama2_30B(), detWork(), detPred,
		sched.Options{Workers: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached, warm) {
		t.Fatal("cache-warming run differs from uncached run")
	}
	if !reflect.DeepEqual(warm, hot) {
		t.Fatal("cache-hot run differs from cache-warming run")
	}
	// The second identical search is served entirely from the scheduler's
	// candidate-level cache (which memoizes the whole exploration, not just
	// the final evaluation).
	if s := sched.CacheStats(); s.Hits == 0 {
		t.Fatalf("second identical search produced no candidate-cache hits: %+v", s)
	}
}

func TestSearchDeterministicRunToRun(t *testing.T) {
	// The GA + memory-scheduler path historically depended on map iteration
	// order (memalloc request/heap order, link-utilisation float sums);
	// guard against regressions by comparing two identical sequential runs.
	opts := sched.Options{
		FixedTP: 4, FixedPP: 14, UseGA: true, GAGenerations: 10,
		Workers: 1, DisableCache: true, Seed: 5,
	}
	a, err := sched.Search(hw.Config3(), model.Llama3_70B(), detWork(), detPred, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sched.Search(hw.Config3(), model.Llama3_70B(), detWork(), detPred, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sequential runs differ")
	}
}

func TestGASearchDeterministicAcrossWorkerCounts(t *testing.T) {
	// A fixed (TP, PP) GA search is one candidate, the shape whose pool
	// was once handed to the GA's population scoring. The GA now scores
	// sequentially at every worker count, and the lone candidate runs
	// inline, so 1 and 4 workers must give the same result exactly.
	opts := func(workers int) sched.Options {
		return sched.Options{
			FixedTP: 4, FixedPP: 14, UseGA: true, GAGenerations: 10,
			Workers: workers, DisableCache: true, Seed: 5,
		}
	}
	seq, err := sched.Search(hw.Config3(), model.Llama3_70B(), detWork(), detPred, opts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := sched.Search(hw.Config3(), model.Llama3_70B(), detWork(), detPred, opts(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("GA search differs between 1 and 4 workers")
	}
}
