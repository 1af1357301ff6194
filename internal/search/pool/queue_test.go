package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// plain wraps fn as a Task.Fn that never declines: it executes fn and
// returns a publish step with nothing to publish.
func plain(fn func()) func() func() {
	return func() func() { fn(); return func() {} }
}

// submit queues fn through TrySubmitTask at the given class and
// criticality, returning the accepted task's Ticket or nil when the queue
// refuses it.
func submit(q *Queue, fn func(), class Class, crit int) *Ticket {
	tk, _ := q.TrySubmitTask(Task{Fn: plain(fn), Class: class, Crit: crit})
	return tk
}

// mustSubmit retries submit until the queue accepts fn: admission never
// blocks, so a producer that outruns the workers backs off and retries.
func mustSubmit(t *testing.T, q *Queue, fn func()) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for submit(q, fn, Interactive, 0) == nil {
		if time.Now().After(deadline) {
			t.Error("submit refused for 10s on an open queue")
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestQueueRunsAllTasks submits tasks from many goroutines and checks every
// one executes exactly once before Close returns.
func TestQueueRunsAllTasks(t *testing.T) {
	q := NewQueue(4, 16)
	var ran atomic.Int64
	var wg sync.WaitGroup
	const tasks = 200
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mustSubmit(t, q, func() { ran.Add(1) })
		}()
	}
	wg.Wait()
	q.Close()
	if got := ran.Load(); got != tasks {
		t.Errorf("ran %d tasks, want %d", got, tasks)
	}
}

// TestQueueBacklogBound checks TrySubmitTask applies backpressure: with all
// workers blocked and the backlog full, it must refuse instead of queueing
// unboundedly.
func TestQueueBacklogBound(t *testing.T) {
	q := NewQueue(1, 2)
	release := make(chan struct{})
	started := make(chan struct{})
	if submit(q, func() { close(started); <-release }, Interactive, 0) == nil {
		t.Fatal("first submit refused")
	}
	<-started // the single worker is now blocked
	if submit(q, func() {}, Interactive, 0) == nil || submit(q, func() {}, Interactive, 0) == nil {
		t.Fatal("backlog submissions refused below the bound")
	}
	if submit(q, func() {}, Interactive, 0) != nil {
		t.Error("submit accepted a task beyond the backlog bound")
	}
	if d := q.Depth(); d != 2 {
		t.Errorf("Depth = %d with a full backlog, want 2", d)
	}
	close(release)
	q.Close()
}

// TestQueueClose checks Close drains the backlog, rejects late submissions
// and is idempotent.
func TestQueueClose(t *testing.T) {
	q := NewQueue(2, 8)
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if submit(q, func() { time.Sleep(time.Millisecond); ran.Add(1) }, Interactive, 0) == nil {
			t.Fatal("submit refused below the backlog bound")
		}
	}
	q.Close()
	if got := ran.Load(); got != 8 {
		t.Errorf("Close returned with %d/8 tasks run", got)
	}
	if submit(q, func() { ran.Add(1) }, Interactive, 0) != nil {
		t.Error("submit accepted a task after Close")
	}
	q.Close() // idempotent
	if got := ran.Load(); got != 8 {
		t.Errorf("late submissions ran: %d tasks total, want 8", got)
	}
}

// TestQueueCloseDiscard checks CloseDiscard finishes the running task but
// drops the queued backlog unexecuted.
func TestQueueCloseDiscard(t *testing.T) {
	q := NewQueue(1, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	submit(q, func() { close(started); <-release; ran.Add(1) }, Interactive, 0)
	<-started
	for i := 0; i < 4; i++ {
		if submit(q, func() { ran.Add(1) }, Interactive, 0) == nil {
			t.Fatal("backlog submit refused")
		}
	}
	closed := make(chan struct{})
	go func() { q.CloseDiscard(); close(closed) }()
	// The discard flag is set before q.done closes, so once done is
	// observed the still-blocked worker cannot execute backlog tasks.
	select {
	case <-q.done:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseDiscard did not signal shutdown")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("CloseDiscard did not return")
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("ran %d tasks, want 1 (running finishes, backlog discarded)", got)
	}
	q.Close() // idempotent across both close flavours
}

// TestQueueAfterSeesTaskRetired checks the publish step Fn returns runs once
// the queue has retired the task: the in-flight count is back to zero and
// the task's duration is already folded into the wait estimate, so an owner
// that publishes completion from that step never shows a finished task in
// flight.
func TestQueueAfterSeesTaskRetired(t *testing.T) {
	q := NewQueue(1, 4)
	defer q.Close()
	type seen struct {
		inflight int
		avg      time.Duration
	}
	got := make(chan seen, 1)
	_, err := q.TrySubmitTask(Task{
		Fn: func() func() {
			time.Sleep(time.Millisecond)
			return func() { got <- seen{q.InFlight(), q.AvgTaskDuration()} }
		},
		Class: Interactive,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s.inflight != 0 {
			t.Errorf("InFlight = %d inside the publish step, want 0", s.inflight)
		}
		if s.avg <= 0 {
			t.Errorf("AvgTaskDuration = %v inside the publish step, want the task folded in", s.avg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the publish step never ran")
	}
}

// TestQueueInFlight checks the occupancy gauges: InFlight counts executing
// tasks, Depth counts the waiting backlog, and both settle back to zero.
func TestQueueInFlight(t *testing.T) {
	q := NewQueue(2, 4)
	if q.InFlight() != 0 || q.Depth() != 0 {
		t.Fatalf("idle queue occupancy = %d in flight / %d queued, want 0 / 0", q.InFlight(), q.Depth())
	}
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if submit(q, func() { started <- struct{}{}; <-release }, Interactive, 0) == nil {
			t.Fatal("submit refused with idle workers")
		}
	}
	<-started
	<-started // both workers are now executing
	if got := q.InFlight(); got != 2 {
		t.Errorf("InFlight = %d with both workers busy, want 2", got)
	}
	if submit(q, func() {}, Interactive, 0) == nil {
		t.Fatal("backlog submit refused")
	}
	if got := q.Depth(); got != 1 {
		t.Errorf("Depth = %d with one queued task, want 1", got)
	}
	close(release)
	q.Close()
	if got := q.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after Close, want 0", got)
	}
}

// TestQueuePriorityOrder pins the dispatch order deterministically: with
// the single worker gated, a mixed backlog drains as (class desc,
// criticality desc, arrival asc) — interactive first, then sweep legs
// heaviest-first, then background in FIFO order.
func TestQueuePriorityOrder(t *testing.T) {
	q := NewQueue(1, 16)
	release := make(chan struct{})
	started := make(chan struct{})
	if submit(q, func() { close(started); <-release }, Background, 0) == nil {
		t.Fatal("gate task refused")
	}
	<-started // the single worker is now pinned; submissions below stay queued

	var mu sync.Mutex
	var got []string
	record := func(name string) func() {
		return func() { mu.Lock(); got = append(got, name); mu.Unlock() }
	}
	submit(q, record("bg-a"), Background, 0)
	submit(q, record("leg-crit3"), SweepLeg, 3)
	submit(q, record("bg-b"), Background, 0)
	submit(q, record("leg-crit9"), SweepLeg, 9)
	submit(q, record("leg-crit1"), SweepLeg, 1)
	if submit(q, record("interactive"), Interactive, 0) == nil {
		t.Fatal("interactive submit refused")
	}

	if d := q.ClassDepths(); d[Interactive] != 1 || d[SweepLeg] != 3 || d[Background] != 2 {
		t.Errorf("ClassDepths = %v, want [2 3 1] (bg, leg, interactive)", d)
	}
	close(release)
	q.Close()
	want := []string{"interactive", "leg-crit9", "leg-crit3", "leg-crit1", "bg-a", "bg-b"}
	if len(got) != len(want) {
		t.Fatalf("drained %d tasks, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

// TestQueuePriorityConcurrentSubmitters checks ordering determinism under
// racing submitters: whatever interleaving the submissions land in, the
// drained (class, criticality) sequence must be non-increasing — FIFO tie
// order between racing equal-priority submitters is unspecified, priority
// order is not.
func TestQueuePriorityConcurrentSubmitters(t *testing.T) {
	q := NewQueue(1, 256)
	release := make(chan struct{})
	started := make(chan struct{})
	if submit(q, func() { close(started); <-release }, Background, 0) == nil {
		t.Fatal("gate task refused")
	}
	<-started

	type key struct {
		class Class
		crit  int
	}
	var mu sync.Mutex
	var got []key
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := key{Class(uint8((g + i) % int(NumClasses))), (g * i) % 5}
				if submit(q, func() {
					mu.Lock()
					got = append(got, k)
					mu.Unlock()
				}, k.class, k.crit) == nil {
					t.Error("submit refused below the backlog bound")
				}
			}
		}(g)
	}
	wg.Wait() // every task is enqueued before the worker is released
	close(release)
	q.Close()
	if len(got) != 64 {
		t.Fatalf("drained %d tasks, want 64", len(got))
	}
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1], got[i]
		if cur.class > prev.class || (cur.class == prev.class && cur.crit > prev.crit) {
			t.Fatalf("dispatch order violated at %d: %+v after %+v", i, cur, prev)
		}
	}
}

// TestQueuePromote checks in-place re-prioritization: promoting a queued
// background task to interactive moves it ahead of earlier arrivals, while
// dispatched tickets and demotions are refused.
func TestQueuePromote(t *testing.T) {
	q := NewQueue(1, 8)
	release := make(chan struct{})
	started := make(chan struct{})
	gate := submit(q, func() { close(started); <-release }, Interactive, 0)
	<-started
	if q.Promote(gate, Interactive, 99) {
		t.Error("Promote succeeded on a ticket already handed to a worker")
	}
	if q.Promote(nil, Interactive, 0) {
		t.Error("Promote succeeded on a nil ticket")
	}

	var mu sync.Mutex
	var got []string
	record := func(name string) func() {
		return func() { mu.Lock(); got = append(got, name); mu.Unlock() }
	}
	submit(q, record("bg-first"), Background, 0)
	promoted := submit(q, record("bg-promoted"), Background, 0)
	submit(q, record("leg"), SweepLeg, 5)
	if q.Promote(promoted, Background, 0) {
		t.Error("Promote accepted a non-raise")
	}
	if !q.Promote(promoted, Interactive, 0) {
		t.Error("Promote refused a class raise on a queued ticket")
	}
	if d := q.ClassDepths(); d[Interactive] != 1 || d[SweepLeg] != 1 || d[Background] != 1 {
		t.Errorf("ClassDepths after promote = %v, want one per class", d)
	}
	close(release)
	q.Close()
	want := []string{"bg-promoted", "leg", "bg-first"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("dispatch order = %v, want %v", got, want)
		}
	}
}

// TestQueueCloseVsCloseDiscard contrasts the two shutdown flavours on
// identical queued backlogs: Close runs every accepted task, CloseDiscard
// drops all of them.
func TestQueueCloseVsCloseDiscard(t *testing.T) {
	for _, discard := range []bool{false, true} {
		q := NewQueue(1, 8)
		release := make(chan struct{})
		started := make(chan struct{})
		var ran atomic.Int64
		submit(q, func() { close(started); <-release; ran.Add(1) }, Interactive, 0)
		<-started
		for i := 0; i < 5; i++ {
			if submit(q, func() { ran.Add(1) }, Interactive, 0) == nil {
				t.Fatal("backlog submit refused")
			}
		}
		closed := make(chan struct{})
		go func() {
			if discard {
				q.CloseDiscard()
			} else {
				q.Close()
			}
			close(closed)
		}()
		<-q.done // discard flag is set before done closes; safe to unblock
		close(release)
		<-closed
		want := int64(6)
		if discard {
			want = 1
		}
		if got := ran.Load(); got != want {
			t.Errorf("discard=%v ran %d tasks, want %d", discard, got, want)
		}
		if submit(q, func() {}, Interactive, 0) != nil || submit(q, func() {}, Background, 0) != nil {
			t.Errorf("discard=%v: submission accepted after close", discard)
		}
	}
}

// TestQueueClassNames pins the wire names and their round-trip through
// ParseClass, including the empty-string-is-interactive default.
func TestQueueClassNames(t *testing.T) {
	for _, c := range []Class{Prefetch, Background, SweepLeg, Interactive} {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if c, ok := ParseClass(""); !ok || c != Interactive {
		t.Errorf("ParseClass(\"\") = %v, %v, want Interactive", c, ok)
	}
	if _, ok := ParseClass("garbage"); ok {
		t.Error("ParseClass accepted an unknown class name")
	}
}

// TestQueueDefaultWidth checks the GOMAXPROCS default accepts work.
func TestQueueDefaultWidth(t *testing.T) {
	q := NewQueue(0, -1)
	done := make(chan struct{})
	mustSubmit(t, q, func() { close(done) }) // backlog 0: waits for a parked worker
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("task did not run")
	}
	q.Close()
}

// TestQueueClassBudget checks per-class admission budgets: with the worker
// busy, a class at its budget is refused with ErrClassOverBudget while other
// classes (and the global backlog) still admit — background sheds first.
func TestQueueClassBudget(t *testing.T) {
	q := NewQueue(1, 8)
	q.SetClassBudgets([NumClasses]int{Background: 1, SweepLeg: 0, Interactive: 0})
	release := make(chan struct{})
	started := make(chan struct{})
	if submit(q, func() { close(started); <-release }, Interactive, 0) == nil {
		t.Fatal("first submit refused")
	}
	<-started // the single worker is now busy
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {}), Class: Background}); err != nil {
		t.Fatalf("background within budget refused: %v", err)
	}
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {}), Class: Background}); err != ErrClassOverBudget {
		t.Errorf("background beyond budget: err = %v, want ErrClassOverBudget", err)
	}
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {}), Class: Interactive}); err != nil {
		t.Errorf("interactive refused while only background is over budget: %v", err)
	}
	close(release)
	q.Close()
}

// TestQueueClassBudgetIdleBypass checks budgets only bite under load: with a
// parked worker the task hands off directly, so even a zero-headroom class
// is admitted.
func TestQueueClassBudgetIdleBypass(t *testing.T) {
	q := NewQueue(1, 0)
	q.SetClassBudgets([NumClasses]int{Background: 1})
	done := make(chan struct{})
	// Give the worker time to park so the direct-handoff slot exists.
	deadline := time.Now().Add(5 * time.Second)
	for {
		tk, err := q.TrySubmitTask(Task{Fn: plain(func() { close(done) }), Class: Background})
		if tk != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle queue refused background task: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	q.Close()
}

// TestQueueCancel checks Cancel removes a queued task without executing it
// and frees its admission slot, while an already-dispatched task reports
// false.
func TestQueueCancel(t *testing.T) {
	q := NewQueue(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	first, err := q.TrySubmitTask(Task{Fn: plain(func() { close(started); <-release }), Class: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	second, err := q.TrySubmitTask(Task{Fn: plain(func() { ran.Store(true) }), Class: Interactive})
	if err != nil {
		t.Fatal(err)
	}
	// Backlog is now full (bound 1).
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {})}); err != ErrQueueFull {
		t.Fatalf("expected ErrQueueFull with full backlog, got %v", err)
	}
	if !q.Cancel(second) {
		t.Fatal("Cancel refused a queued ticket")
	}
	if q.Cancel(second) {
		t.Error("Cancel succeeded twice on the same ticket")
	}
	if q.Cancel(first) {
		t.Error("Cancel succeeded on an in-flight task")
	}
	// The cancelled task's slot is free again: the backlog admits a new task.
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {})}); err != nil {
		t.Fatalf("slot leaked: admission refused after Cancel: %v", err)
	}
	close(release)
	q.Close()
	if ran.Load() {
		t.Error("cancelled task executed")
	}
}

// TestQueueDeadlineExpiredAtDispatch checks the queue side of expiry at
// dispatch: the queue knows no deadlines, so the task's owner checks its own
// and declines (Fn returns nil). A declined task publishes nothing, adds no
// duration sample to the wait estimate, and the worker moves on to live
// work.
func TestQueueDeadlineExpiredAtDispatch(t *testing.T) {
	q := NewQueue(1, 4)
	release := make(chan struct{})
	started := make(chan struct{})
	q.TrySubmitTask(Task{Fn: func() func() { close(started); <-release; return nil }, Class: Interactive})
	<-started
	var ran, published atomic.Bool
	deadline := time.Now().Add(10 * time.Millisecond)
	next := make(chan struct{})
	if _, err := q.TrySubmitTask(Task{
		Fn: func() func() {
			if !time.Now().Before(deadline) {
				return nil // expired while queued: decline
			}
			ran.Store(true)
			return func() { published.Store(true) }
		},
		Class: Interactive,
	}); err != nil {
		t.Fatal(err)
	}
	q.TrySubmitTask(Task{Fn: func() func() { close(next); return nil }, Class: Interactive})
	time.Sleep(30 * time.Millisecond) // let the deadline lapse while queued
	close(release)
	select {
	case <-next:
	case <-time.After(5 * time.Second):
		t.Fatal("follow-up task never ran")
	}
	q.Close()
	if ran.Load() || published.Load() {
		t.Error("expired task executed")
	}
	if avg := q.AvgTaskDuration(); avg != 0 {
		t.Errorf("AvgTaskDuration = %v after declined dispatches only, want 0", avg)
	}
}

// TestQueueEstimatedWait checks the wait estimate is zero on an idle queue,
// grows with backlog depth once a duration sample exists, and respects
// priority: an interactive probe does not wait behind queued background
// work.
func TestQueueEstimatedWait(t *testing.T) {
	q := NewQueue(1, 16)
	if w := q.EstimatedWait(Interactive, 0); w != 0 {
		t.Fatalf("EstimatedWait on idle queue = %v, want 0", w)
	}
	// Produce one duration sample (~20ms).
	done := make(chan struct{})
	submit(q, func() { time.Sleep(20 * time.Millisecond); close(done) }, Interactive, 0)
	<-done
	for q.AvgTaskDuration() == 0 { // worker records the sample after fn returns
		time.Sleep(time.Millisecond)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	submit(q, func() { close(started); <-release }, Interactive, 0)
	<-started
	for i := 0; i < 4; i++ {
		if _, err := q.TrySubmitTask(Task{Fn: plain(func() {}), Class: Background}); err != nil {
			t.Fatal(err)
		}
	}
	bg := q.EstimatedWait(Background, 0)
	ia := q.EstimatedWait(Interactive, 0)
	if bg <= 0 {
		t.Errorf("background EstimatedWait = %v behind 4 queued + 1 running, want > 0", bg)
	}
	if ia >= bg {
		t.Errorf("interactive EstimatedWait %v not below background %v", ia, bg)
	}
	close(release)
	q.Close()
}

// TestQueuePrefetchWithoutPreemptStaysQueued checks the queue never drops a
// prefetch task: it merely sorts last, and demand arrival leaves it queued.
// Evicting speculation is its owner's call (Cancel), since a task the queue
// dropped would be unobservable by its owner.
func TestQueuePrefetchWithoutPreemptStaysQueued(t *testing.T) {
	q := NewQueue(1, 8)
	release := make(chan struct{})
	started := make(chan struct{})
	submit(q, func() { close(started); <-release }, Interactive, 0)
	<-started
	var ran atomic.Bool
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() { ran.Store(true) }), Class: Prefetch}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.TrySubmitTask(Task{Fn: plain(func() {}), Class: Interactive}); err != nil {
		t.Fatal(err)
	}
	if d := q.ClassDepths(); d[Prefetch] != 1 {
		t.Errorf("queued prefetch task dropped on demand arrival: depth = %d, want 1", d[Prefetch])
	}
	close(release)
	q.Close()
	if !ran.Load() {
		t.Error("queued prefetch task never executed before Close drained")
	}
}

// TestQueueIdleForPrefetch checks the idle gate: open on a quiet queue,
// closed while demand work is queued or saturating the workers, and blind
// to in-flight prefetch (speculative work doesn't gate itself).
func TestQueueIdleForPrefetch(t *testing.T) {
	q := NewQueue(1, 8)
	if !q.IdleForPrefetch() {
		t.Error("idle queue reports not idle")
	}
	release := make(chan struct{})
	started := make(chan struct{})
	submit(q, func() { close(started); <-release }, Interactive, 0)
	<-started
	if q.IdleForPrefetch() {
		t.Error("gate open with every worker on demand work")
	}
	close(release)
	// Drain, then occupy the worker with a prefetch task: the gate must
	// stay open (demand in-flight is zero).
	pfStarted := make(chan struct{})
	pfRelease := make(chan struct{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.TrySubmitTask(Task{
			Fn:    plain(func() { close(pfStarted); <-pfRelease }),
			Class: Prefetch,
		}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	<-pfStarted
	if !q.IdleForPrefetch() {
		t.Error("gate closed by in-flight prefetch work")
	}
	close(pfRelease)
	q.Close()
}

// TestQueueEstimatedWaitIgnoresPrefetch checks in-flight prefetch work does
// not inflate the demand wait estimate: with the only worker running a
// prefetch task and a duration sample on record, an interactive probe still
// estimates zero wait.
func TestQueueEstimatedWaitIgnoresPrefetch(t *testing.T) {
	q := NewQueue(1, 8)
	done := make(chan struct{})
	submit(q, func() { time.Sleep(20 * time.Millisecond); close(done) }, Interactive, 0)
	<-done
	for q.AvgTaskDuration() == 0 {
		time.Sleep(time.Millisecond)
	}
	pfStarted := make(chan struct{})
	pfRelease := make(chan struct{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := q.TrySubmitTask(Task{
			Fn:    plain(func() { close(pfStarted); <-pfRelease }),
			Class: Prefetch,
		}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	<-pfStarted
	if w := q.EstimatedWait(Interactive, 0); w != 0 {
		t.Errorf("EstimatedWait = %v with only prefetch in flight, want 0", w)
	}
	close(pfRelease)
	q.Close()
}
