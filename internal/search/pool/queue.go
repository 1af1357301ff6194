package pool

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// Admission errors returned by TrySubmitTask. The service maps them to
// distinct HTTP statuses: a full backlog is transient backpressure (503),
// while a class over its budget or an infeasible deadline is load shedding
// (429 with a Retry-After hint).
var (
	// ErrQueueClosed: the queue no longer accepts tasks.
	ErrQueueClosed = errors.New("queue closed")
	// ErrQueueFull: the global backlog (plus direct-handoff slots) is full.
	ErrQueueFull = errors.New("queue full")
	// ErrClassOverBudget: this priority class has exhausted its backlog
	// budget while every worker is busy — the shedding signal.
	ErrClassOverBudget = errors.New("class backlog budget exhausted")
)

// Class is a scheduling priority class. Higher classes dispatch strictly
// before lower ones: an interactive request never waits behind a bulk
// sweep's backlog. The zero value is Prefetch — the lowest class — so that
// forgetting to set a class on speculative work keeps it out of everyone
// else's way. Every class above Prefetch is demand work: somebody asked for
// it. Prefetch is a guess: it sorts last, stays out of the wait estimate and
// is admitted only through IdleForPrefetch. Evicting queued speculation when
// demand arrives is its owner's call (Cancel), not the queue's.
type Class uint8

const (
	// Prefetch is speculative cache warming: work nobody asked for yet,
	// admitted only into idle capacity.
	Prefetch Class = iota
	// Background is idle-capacity demand work: bulk jobs a caller did
	// submit but is content to wait for.
	Background
	// SweepLeg is one architecture leg of a scattered sweep — bulk work
	// that must not head-of-line-block interactive traffic.
	SweepLeg
	// Interactive is a user-facing single request; it jumps every queued
	// sweep leg.
	Interactive
	// NumClasses sizes per-class gauges.
	NumClasses = 4
)

// String returns the wire name of the class ("prefetch", "background",
// "sweep-leg", "interactive").
func (c Class) String() string {
	switch c {
	case Prefetch:
		return "prefetch"
	case Background:
		return "background"
	case SweepLeg:
		return "sweep-leg"
	case Interactive:
		return "interactive"
	}
	return "unknown"
}

// ParseClass maps a wire name to its Class. The empty string is Interactive:
// an unlabelled request is somebody waiting on the result.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "", "interactive":
		return Interactive, true
	case "sweep-leg":
		return SweepLeg, true
	case "background":
		return Background, true
	case "prefetch":
		return Prefetch, true
	}
	return Prefetch, false
}

// Ticket identifies a task accepted into the backlog. It is the handle for
// Cancel and for Promote: raising a queued task's priority in place, which
// is how an interactive submission coalescing onto an already-queued sweep
// leg drags that leg up to interactive urgency instead of waiting behind
// the sweep (priority-inversion avoidance). A Ticket is inert once its task
// has been handed to a worker.
type Ticket struct {
	fn    func() func()
	class Class
	crit  int
	seq   uint64
	index int // position in the heap; -1 once dequeued
}

// Task is the full-fidelity submission form: a function plus its scheduling
// class and criticality. The queue only orders, admits and runs tasks; the
// task's owner alone decides whether queued work still runs.
type Task struct {
	// Fn runs on a worker and returns the step that publishes its outcome,
	// or nil when its owner declines the dispatch (the work was stopped
	// while queued). The worker runs the returned step once it has retired
	// the task — the in-flight count decremented and the duration folded
	// into the wait estimate — so an owner that publishes completion there
	// never shows a finished task as still in flight. A declined dispatch
	// never executed and adds no duration sample.
	Fn    func() (after func())
	Class Class
	Crit  int
}

// Queue is a long-lived bounded priority job queue: a fixed set of workers
// drains a bounded backlog of submitted tasks, highest priority first. It
// complements Map — Map fans a known batch of n tasks out and joins them,
// while Queue accepts tasks one at a time over its lifetime, which is what
// a resident evaluation service needs.
//
// Dispatch order is (class desc, criticality desc, arrival asc): classes
// separate tenants (interactive > sweep-leg > background), criticality
// orders work within a class — a sweep submits its heaviest legs first
// because the merge barrier waits on the slowest leg, so the legs gating
// the most downstream work must reach a worker first while light legs fill
// the remaining slots — and arrival order breaks ties, keeping equal-priority
// dispatch FIFO and deterministic.
type Queue struct {
	mu         sync.Mutex
	notEmpty   sync.Cond // workers wait here for tasks
	heap       []*Ticket
	byClass    [NumClasses]int
	budgets    [NumClasses]int // per-class backlog caps; 0 = uncapped
	seq        uint64
	backlog    int
	nworkers   int
	waiting    int // workers parked in notEmpty — each is a free direct-handoff slot
	inflight   int
	inflightBy [NumClasses]int
	avgNs      float64 // EWMA of task execution time, the wait-estimate basis
	closed     bool
	discard    bool
	workers    sync.WaitGroup
	done       chan struct{} // closed on Close/CloseDiscard (after discard is set)
}

// NewQueue returns a Queue with the given worker count (<=0 = GOMAXPROCS)
// and backlog bound (<0 = 0, i.e. submissions hand off directly to an idle
// worker or report the queue full).
func NewQueue(workers, backlog int) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if backlog < 0 {
		backlog = 0
	}
	q := &Queue{backlog: backlog, nworkers: workers, done: make(chan struct{})}
	q.notEmpty.L = &q.mu
	q.workers.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// SetClassBudgets caps the queued backlog per priority class; 0 leaves a
// class uncapped (bounded only by the global backlog). Budgets bite only
// while every worker is busy — an idle fleet admits any class, since the
// task hands off directly instead of queueing. Giving background a small
// budget and interactive a large (or no) one makes overload shed bulk work
// first and user-facing work last.
func (q *Queue) SetClassBudgets(budgets [NumClasses]int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.budgets = budgets
}

// worker drains the heap until the queue is closed and empty. A parked
// worker counts toward admission capacity (direct handoff), mirroring the
// channel semantics this queue replaced: with backlog 0 a submission still
// succeeds when a worker is idle.
func (q *Queue) worker() {
	defer q.workers.Done()
	q.mu.Lock()
	for {
		for len(q.heap) == 0 && !q.closed {
			q.waiting++
			q.notEmpty.Wait()
			q.waiting--
		}
		if len(q.heap) == 0 { // closed and fully drained
			q.mu.Unlock()
			return
		}
		t := q.popLocked()
		if q.discard {
			continue
		}
		q.inflight++
		q.inflightBy[t.class]++
		q.mu.Unlock()
		start := time.Now()
		after := t.fn()
		elapsed := time.Since(start)
		q.mu.Lock()
		q.inflight--
		q.inflightBy[t.class]--
		if after == nil {
			continue // declined: nothing ran, so no duration sample
		}
		// Prefetch executions are invisible to the wait estimate: they run
		// only into idle capacity, and folding their durations (or counting
		// them as occupancy) into the EWMA would let speculative work shed
		// demand work at admission.
		if t.class > Prefetch {
			q.observeLocked(elapsed)
		}
		q.mu.Unlock()
		after()
		q.mu.Lock()
	}
}

// observeLocked folds one task execution time into the EWMA the admission
// wait estimate is built on.
func (q *Queue) observeLocked(d time.Duration) {
	const alpha = 0.25
	if q.avgNs <= 0 {
		q.avgNs = float64(d)
		return
	}
	q.avgNs += alpha * (float64(d) - q.avgNs)
}

// hasSpaceLocked reports whether one more task fits: the configured backlog
// plus one direct-handoff slot per parked worker.
func (q *Queue) hasSpaceLocked() bool { return len(q.heap) < q.backlog+q.waiting }

func (q *Queue) pushLocked(t Task) *Ticket {
	q.seq++
	tk := &Ticket{fn: t.Fn, class: t.Class, crit: t.Crit, seq: q.seq, index: len(q.heap)}
	q.heap = append(q.heap, tk)
	q.byClass[tk.class]++
	q.up(tk.index)
	q.notEmpty.Signal()
	return tk
}

// TrySubmitTask is the non-blocking admission point: it returns the
// accepted task's Ticket, or a typed error saying why the task was refused
// (ErrQueueClosed, ErrClassOverBudget, ErrQueueFull) so the service can
// answer shedding (429 + Retry-After) distinctly from plain backpressure
// (503). Admission never blocks: a caller that must get a task in retries.
func (q *Queue) TrySubmitTask(t Task) (*Ticket, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrQueueClosed
	}
	if b := q.budgets[t.Class]; b > 0 && q.waiting == 0 && q.byClass[t.Class] >= b {
		return nil, ErrClassOverBudget
	}
	if !q.hasSpaceLocked() {
		return nil, ErrQueueFull
	}
	return q.pushLocked(t), nil
}

// Cancel removes a still-queued task from the backlog without executing it,
// freeing its admission slot. It reports false once the task has been handed
// to a worker (or already cancelled) — in-flight work is never interrupted.
// This is how a task's owner stops queued work (an expired deadline,
// speculation evicted by demand) promptly and without leaking backlog
// capacity.
func (q *Queue) Cancel(t *Ticket) bool {
	if t == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.index < 0 {
		return false
	}
	q.removeLocked(t.index)
	return true
}

// EstimatedWait estimates how long a new arrival at (class, crit) would sit
// in the backlog before reaching a worker: the tasks that would dispatch
// ahead of it (everything queued at higher priority, FIFO within equal
// priority, plus everything in flight) paced at the EWMA task duration
// across the worker set. Zero means "would dispatch immediately" — also the
// answer before any task has completed, since with no duration signal the
// queue has no basis to refuse. Admission control rejects a request whose
// estimated wait already exceeds its deadline budget.
func (q *Queue) EstimatedWait(class Class, crit int) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.avgNs <= 0 {
		return 0
	}
	probe := Ticket{class: class, crit: crit, seq: q.seq + 1}
	// In-flight prefetch is not occupancy from a demand arrival's point of
	// view: it only ever started because the queue was idle, and the owner
	// evicts queued speculation when demand arrives.
	ahead := q.inflight - q.inflightBy[Prefetch]
	for _, t := range q.heap {
		if before(t, &probe) {
			ahead++
		}
	}
	if ahead < q.nworkers {
		return 0
	}
	rounds := float64(ahead-q.nworkers+1) / float64(q.nworkers)
	return time.Duration(rounds * q.avgNs)
}

// AvgTaskDuration returns the EWMA task execution time the wait estimate is
// paced by (zero until the first task completes) — a stats gauge.
func (q *Queue) AvgTaskDuration() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return time.Duration(q.avgNs)
}

// Promote raises a queued task to at least (class, crit), resiting it in the
// dispatch order; it keeps the task's original arrival rank against equal
// priorities. It reports whether the task was re-prioritized — false when
// the ticket has already been handed to a worker or the requested priority
// does not exceed the current one. Lowering a priority is deliberately not
// supported: demotion under coalescing would let a background submitter
// delay an interactive job that arrived first.
func (q *Queue) Promote(t *Ticket, class Class, crit int) bool {
	if t == nil {
		return false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if t.index < 0 {
		return false
	}
	if class < t.class || (class == t.class && crit <= t.crit) {
		return false
	}
	q.byClass[t.class]--
	t.class, t.crit = class, crit
	q.byClass[t.class]++
	q.up(t.index) // priority only increased
	return true
}

// Depth returns the number of tasks waiting in the backlog (excluding tasks
// already running on workers).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// ClassDepths returns the backlog depth per priority class, indexed by
// Class — the per-tenant occupancy gauges the stats endpoint exposes.
func (q *Queue) ClassDepths() [NumClasses]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.byClass
}

// InFlight returns the number of tasks currently executing on workers. With
// Depth it is the queue's occupancy — the load signal a routing front-end
// reads per shard.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inflight
}

// IdleForPrefetch reports whether a speculative task may be admitted under
// the prefetch gate: no demand work queued (speculative backlog doesn't
// count against itself) and a worker free of demand work. The answer is
// advisory — demand may arrive between the check and the submit — which is
// safe because the owner evicts queued speculation when demand shows up.
func (q *Queue) IdleForPrefetch() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	demandQueued := len(q.heap) - q.byClass[Prefetch]
	demandInflight := q.inflight - q.inflightBy[Prefetch]
	return demandQueued == 0 && demandInflight < q.nworkers
}

// Close stops accepting new tasks, drains the already-accepted backlog in
// priority order and waits for running tasks to finish. It is idempotent
// (also with respect to CloseDiscard).
func (q *Queue) Close() { q.close(false) }

// CloseDiscard stops accepting new tasks and waits only for the tasks
// already running on workers; the queued backlog — every task accepted but
// not yet started, including submissions racing this call — is dropped
// unexecuted. This is the bounded-latency shutdown a daemon needs: with
// its frontend already down, nobody can collect the backlog's results
// anyway.
func (q *Queue) CloseDiscard() { q.close(true) }

// Discard flips the queue into discard mode without closing it: tasks not
// yet started are skipped from here on, while running tasks finish. Its use
// is cutting a graceful Close short from another goroutine (a second
// shutdown signal) — the blocked Close returns as soon as the workers have
// skipped through the remaining backlog.
func (q *Queue) Discard() {
	q.mu.Lock()
	q.discard = true
	q.mu.Unlock()
}

func (q *Queue) close(discard bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	if discard {
		q.discard = true
	}
	close(q.done) // observable shutdown signal; discard is set before it
	q.notEmpty.Broadcast()
	q.mu.Unlock()
	q.workers.Wait()
}

// before reports whether a dispatches ahead of b.
func before(a, b *Ticket) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	if a.crit != b.crit {
		return a.crit > b.crit
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(q.heap[i], q.heap[parent]) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && before(q.heap[l], q.heap[best]) {
			best = l
		}
		if r < n && before(q.heap[r], q.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		q.swap(i, best)
		i = best
	}
}

func (q *Queue) popLocked() *Ticket { return q.removeLocked(0) }

// removeLocked detaches the ticket at heap position i, restoring the heap
// invariant around the hole (down then up, since the swapped-in tail may
// belong either direction when removing from the middle).
func (q *Queue) removeLocked(i int) *Ticket {
	t := q.heap[i]
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	t.index = -1
	q.byClass[t.class]--
	return t
}
