// Package pool provides the bounded worker pool underlying the concurrent
// evaluation runtime of internal/search. It is deliberately dependency-free
// so that leaf packages (e.g. internal/hw's architecture enumerator) can fan
// work out without importing the evaluation stack and creating an import
// cycle.
//
// Determinism contract: Run/Map execute fn(i) for every i in [0, n) exactly
// once and collect results by index, so the output of a parallel run is
// byte-identical to a sequential one as long as fn(i) depends only on i.
//
// Queue is the long-lived counterpart: a plain bounded priority queue that
// admits, orders and runs tasks. It has no lifecycle of its own beyond
// close — no deadlines, no preemption. Whether queued work still runs is
// its owner's decision, expressed by Cancel and by a Task.Fn that declines.
package pool

import (
	"runtime"
	"sync"
)

// Runner is a bounded worker pool. The zero value runs with GOMAXPROCS
// workers; Workers pins the width (1 = strictly sequential, no goroutines,
// preserving single-threaded behaviour for reproducible ablations).
type Runner struct {
	// Workers is the pool width; <=0 selects GOMAXPROCS.
	Workers int
}

// New returns a Runner with the given width (<=0 = GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

// width resolves the effective worker count for n tasks.
func (r *Runner) width(n int) int {
	w := 0
	if r != nil {
		w = r.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Width resolves the worker count Run/RunWorker would use for n tasks —
// the upper bound on the worker IDs RunWorker passes to fn. Callers sizing
// per-worker scratch tables should size them with the largest n they will
// dispatch.
func (r *Runner) Width(n int) int { return r.width(n) }

// Run executes fn(i) for every i in [0, n). With one worker it runs inline
// on the calling goroutine in index order; otherwise tasks are distributed
// over the pool and Run returns once all complete.
func (r *Runner) Run(n int, fn func(i int)) {
	r.RunWorker(n, func(_, i int) { fn(i) })
}

// RunWorker is Run with worker identity: fn(w, i) is called with the ID
// w ∈ [0, Width(n)) of the executing worker, which is stable for the
// goroutine across all its tasks in this call. Callers use it to keep
// per-worker scratch state (caches, scorers) without locking; task results
// must still depend only on i for the determinism contract to hold.
func (r *Runner) RunWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := r.width(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(worker int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(k)
	}
	wg.Wait()
}

// Map runs fn over [0, n) on the pool and returns the results in index
// order, making parallel output identical to sequential output.
func Map[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.Run(n, func(i int) { out[i] = fn(i) })
	return out
}
