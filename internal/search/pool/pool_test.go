package pool

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		r := New(workers)
		got := Map(r, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapIdenticalAcrossWorkerCounts(t *testing.T) {
	seq := Map(New(1), 64, func(i int) float64 { return float64(i) * 1.25 })
	par := Map(New(8), 64, func(i int) float64 { return float64(i) * 1.25 })
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel Map result differs from sequential")
	}
}

func TestRunExecutesEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	New(7).Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestRunZeroAndNegativeTasks(t *testing.T) {
	called := false
	New(4).Run(0, func(int) { called = true })
	New(4).Run(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty task set")
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	// Workers=1 must run on the calling goroutine in index order — the
	// reproducible single-threaded mode. Sequential order implies each
	// index sees all predecessors done.
	var order []int
	New(1).Run(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential run out of order: %v", order)
		}
	}
}

func TestWidthClamping(t *testing.T) {
	if w := (&Runner{Workers: 64}).width(3); w != 3 {
		t.Errorf("width should clamp to task count, got %d", w)
	}
	if w := (&Runner{Workers: -1}).width(1000); w < 1 {
		t.Errorf("auto width must be >= 1, got %d", w)
	}
	var nilRunner *Runner
	if w := nilRunner.width(5); w < 1 {
		t.Errorf("nil runner width must be >= 1, got %d", w)
	}
}

func TestRunWorkerIdentity(t *testing.T) {
	// Worker IDs must stay within [0, Width(n)) and belong to exactly one
	// live goroutine at a time — the property that makes per-worker
	// scratch indexed by the ID race-free.
	r := New(4)
	n := 200
	width := r.Width(n)
	if width != 4 {
		t.Fatalf("Width(200) with 4 workers = %d, want 4", width)
	}
	inUse := make([]int32, width)
	var mu sync.Mutex
	perWorker := map[int]int{}
	r.RunWorker(n, func(w, i int) {
		if w < 0 || w >= width {
			t.Errorf("worker ID %d outside [0,%d)", w, width)
			return
		}
		if atomic.AddInt32(&inUse[w], 1) != 1 {
			t.Errorf("worker ID %d used by two goroutines concurrently", w)
		}
		mu.Lock()
		perWorker[w]++
		mu.Unlock()
		atomic.AddInt32(&inUse[w], -1)
	})
	total := 0
	for _, c := range perWorker {
		total += c
	}
	if total != n {
		t.Fatalf("tasks executed %d times, want %d", total, n)
	}
	// Sequential mode: every task on worker 0.
	New(1).RunWorker(5, func(w, i int) {
		if w != 0 {
			t.Errorf("sequential RunWorker used worker %d", w)
		}
	})
}
