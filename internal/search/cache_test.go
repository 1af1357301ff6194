package search

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/search/pool"
	"repro/internal/sim"
)

func testConfig(t testing.TB, tp, pp int) (engine.Config, *mesh.Mesh, sim.Strategy) {
	t.Helper()
	w := hw.Config3()
	m := mesh.New(w)
	pl, err := placement.Serpentine(m, tp, pp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Wafer:     w,
		Spec:      model.Llama2_30B(),
		Workload:  model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 2048},
		TP:        tp,
		PP:        pp,
		Predictor: predictor.NewLookupTable(predictor.TileLevel{}),
	}
	return cfg, m, sim.Strategy{Placement: pl}
}

func TestCachedEvaluationIsHitAndBitIdentical(t *testing.T) {
	cfg, m, strat := testConfig(t, 4, 8)
	c := NewCache(16)
	ev := Cached(SimEvaluator{}, c)

	first, err1 := ev.Evaluate(cfg, m, strat)
	second, err2 := ev.Evaluate(cfg, m, strat)
	if err1 != nil || err2 != nil {
		t.Fatalf("evaluate errors: %v, %v", err1, err2)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached report differs from the original evaluation")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %d / %d", s.Hits, s.Misses)
	}
	// And bit-identical against an uncached evaluation.
	direct, err := SimEvaluator{}.Evaluate(cfg, m, strat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, second) {
		t.Fatal("cached report differs from a direct sim.Evaluate")
	}
}

func TestFingerprintDistinguishesConfigurations(t *testing.T) {
	cfg, m, strat := testConfig(t, 4, 8)
	base := Fingerprint(cfg, m, strat)

	tp2 := cfg
	tp2.TP, tp2.PP = 8, 4
	if Fingerprint(tp2, m, strat) == base {
		t.Error("fingerprint ignores the (TP, PP) factorisation")
	}
	wl := cfg
	wl.Workload.GlobalBatch *= 2
	if Fingerprint(wl, m, strat) == base {
		t.Error("fingerprint ignores the workload")
	}
	pw := strat
	pw.PipelineWafers = 2
	if Fingerprint(cfg, m, pw) == base {
		t.Error("fingerprint ignores PipelineWafers")
	}
	faulty := mesh.New(cfg.Wafer)
	faulty.InjectDieFault(mesh.DieID{X: 1, Y: 1}, 0.5)
	if Fingerprint(cfg, faulty, strat) == base {
		t.Error("fingerprint ignores mesh fault state")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put("a", sim.Report{DP: 1}, nil)
	c.Put("b", sim.Report{DP: 2}, nil)
	if _, _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.Put("c", sim.Report{DP: 3}, nil) // evicts b
	if _, _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if r, _, ok := c.Get("a"); !ok || r.DP != 1 {
		t.Error("a should have survived eviction")
	}
	if r, _, ok := c.Get("c"); !ok || r.DP != 3 {
		t.Error("c should be present")
	}
	if s := c.Stats(); s.Size != 2 {
		t.Errorf("size %d, want 2", s.Size)
	}
}

func TestCacheStoresErrors(t *testing.T) {
	c := NewCache(4)
	oom := errors.New("sim: die OOM")
	c.Put("k", sim.Report{}, oom)
	_, err, ok := c.Get("k")
	if !ok || err != oom {
		t.Fatalf("cached error not returned: ok=%v err=%v", ok, err)
	}
}

func TestCacheResetZeroesCounters(t *testing.T) {
	c := NewCache(4)
	c.Put("k", sim.Report{}, nil)
	c.Get("k")
	c.Get("absent")
	c.Reset()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 0 || s.Size != 0 {
		t.Fatalf("reset left stats %+v", s)
	}
}

// failCountingEvaluator counts how often the inner evaluator actually runs.
type failCountingEvaluator struct{ calls int64 }

func (e *failCountingEvaluator) Evaluate(engine.Config, *mesh.Mesh, sim.Strategy) (sim.Report, error) {
	atomic.AddInt64(&e.calls, 1)
	return sim.Report{}, fmt.Errorf("always infeasible")
}

func TestCachedEvaluatorMemoizesFailures(t *testing.T) {
	cfg, m, strat := testConfig(t, 4, 8)
	inner := &failCountingEvaluator{}
	ev := Cached(inner, NewCache(4))
	for i := 0; i < 3; i++ {
		if _, err := ev.Evaluate(cfg, m, strat); err == nil {
			t.Fatal("expected the memoized failure")
		}
	}
	if n := atomic.LoadInt64(&inner.calls); n != 1 {
		t.Fatalf("inner evaluator ran %d times, want 1", n)
	}
}

// TestConcurrentCacheAccess drives the cache from the worker pool; run with
// `go test -race ./internal/search/...` to verify thread safety.
func TestConcurrentCacheAccess(t *testing.T) {
	cfg, m, strat := testConfig(t, 4, 8)
	c := NewCache(8)
	ev := Cached(SimEvaluator{}, c)
	reports := pool.Map(8, 32, func(i int) sim.Report {
		r, err := ev.Evaluate(cfg, m, strat)
		if err != nil {
			t.Error(err)
		}
		return r
	})
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(reports[0], reports[i]) {
			t.Fatalf("concurrent evaluation %d produced a different report", i)
		}
	}
	s := c.Stats()
	if s.Hits+s.Misses != 32 {
		t.Fatalf("want 32 lookups, got %d", s.Hits+s.Misses)
	}
	if s.Misses < 1 || s.Hits < 1 {
		t.Fatalf("expected a mix of hits and misses, got %+v", s)
	}
}
