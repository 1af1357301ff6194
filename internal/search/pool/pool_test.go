package pool

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got := Map(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	seq := Map(1, 64, func(i int) float64 { return float64(i) * 1.25 })
	par := Map(8, 64, func(i int) float64 { return float64(i) * 1.25 })
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Map result differs from sequential")
	}
}

// TestRunExecutesEachIndexOnce pins that a Map run over n tasks calls fn
// once per index, whatever goroutine takes it.
func TestRunExecutesEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	Map(7, n, func(i int) struct{} {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

// TestRunZeroAndNegativeTasks pins that a Map run over no tasks, or a
// negative count, calls nothing and returns an empty slice.
func TestRunZeroAndNegativeTasks(t *testing.T) {
	called := false
	fn := func(int) int { called = true; return 0 }
	for _, n := range []int{0, -3} {
		if out := Map(4, n, fn); len(out) != 0 {
			t.Fatalf("Map over %d tasks = %v, want an empty slice", n, out)
		}
	}
	if called {
		t.Fatal("fn called for empty task set")
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	// One worker must run on the calling goroutine in index order — the
	// reproducible single-threaded mode. Sequential order implies each
	// index sees all predecessors done.
	var order []int
	Map(1, 10, func(i int) int { order = append(order, i); return i })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential run out of order: %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("sequential run executed %d tasks, want 10", len(order))
	}
}

func TestWidthClamping(t *testing.T) {
	if w := width(64, 3); w != 3 {
		t.Errorf("width should clamp to task count, got %d", w)
	}
	if w := width(-1, 1000); w < 1 {
		t.Errorf("auto width must be >= 1, got %d", w)
	}
	if w := width(0, 5); w < 1 || w > 5 {
		t.Errorf("auto width for 5 tasks = %d, want within [1, 5]", w)
	}
	if w := width(4, 0); w != 1 {
		t.Errorf("width for no tasks = %d, want 1", w)
	}
}
