// Package pool provides the concurrency of the evaluation runtime of
// internal/search. It is deliberately dependency-free so that any package
// can fan work out without importing the evaluation stack and creating an
// import cycle.
//
// Map is the one batch fan-out. It is called only where each task is a
// whole search: the candidates of sched.Search, the architectures of
// core.Explore, the frameworks of baselines.RunFrameworks and the dies of
// Fig 25. The searches inside a fanned-out task run with Workers: 1, so
// one level runs concurrently and nothing finer than a search (a GA
// generation, an enumerator's packing) goes to a goroutine.
//
// Determinism contract: Map executes fn(i) for every i in [0, n) exactly
// once and collects results by index, so the output of a parallel run is
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
	"sync/atomic"
)

// Map runs fn(i) for every i in [0, n) on up to workers goroutines
// (<=0 = GOMAXPROCS) and returns the results in index order. With one
// worker, or at most one task, it runs inline on the calling goroutine in
// index order, with no goroutines at all.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, max(n, 0))
	w := width(workers, n)
	if w == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// width resolves the number of goroutines Map runs n tasks on: workers,
// or GOMAXPROCS when workers <= 0, clamped to [1, n].
func width(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}
