package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/search/pool"
)

// occupyWorker parks the single job worker on a blocking task and returns
// the release function. Tests use it to freeze dispatch deterministically.
func occupyWorker(t *testing.T, s *Server) func() {
	t.Helper()
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	<-blocked
	var once bool
	return func() {
		if !once {
			once = true
			close(release)
		}
	}
}

// TestDeadlineExpiresWhileQueued pins the core deadline contract: a job
// whose budget runs out while it is still queued is cancelled without ever
// executing, reported as deadline_exceeded (distinct from failed), and its
// backlog slot is freed — not leaked.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 1}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	req := testRequest()
	req.DeadlineMS = 30
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("deadlined submit: %v", err)
	}
	if j.Deadline.IsZero() {
		t.Error("accepted job carries no absolute deadline")
	}
	got, err := s.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateExpired {
		t.Fatalf("state = %q, want %q", got.State, StateExpired)
	}
	if got.State == StateFailed {
		t.Error("deadline expiry conflated with failure")
	}
	if got.Result != nil || !got.StartedAt.IsZero() {
		t.Error("expired job executed: it must be cancelled while queued")
	}
	if st := s.Stats(); st.JobsExpired != 1 || st.JobsFailed != 0 {
		t.Errorf("JobsExpired = %d, JobsFailed = %d; want 1, 0", st.JobsExpired, st.JobsFailed)
	}
	// Slot not leaked: with the worker still blocked, the single backlog
	// slot must admit a fresh job.
	req2 := testRequest()
	req2.Seed = 99
	if _, _, err := s.Submit(req2); err != nil {
		t.Fatalf("backlog slot leaked by expired job: %v", err)
	}
}

// TestDeadlineShorterThanQueueTick submits a 1 ms budget — below any
// scheduling granularity — and releases the worker immediately, racing the
// expiry timer against dispatch. Whichever side wins, the job must come out
// deadline_exceeded and unexecuted, never half-run.
func TestDeadlineShorterThanQueueTick(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 4}, nil)
	defer s.Close()
	release := occupyWorker(t, s)

	req := testRequest()
	req.DeadlineMS = 1
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	time.Sleep(2 * time.Millisecond) // let the 1 ms budget lapse while queued
	release()
	got, err := s.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateExpired {
		t.Fatalf("state = %q, want %q", got.State, StateExpired)
	}
	if got.Result != nil || !got.StartedAt.IsZero() {
		t.Error("sub-tick-deadline job executed")
	}
}

// TestDeadlineInfeasibleShedAtAdmission checks estimated-wait admission: a
// request whose queue wait would already exceed its budget is refused with
// a ShedError carrying a Retry-After hint, before consuming a backlog slot.
func TestDeadlineInfeasibleShedAtAdmission(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer s.Close()
	// Seed the queue's duration EWMA with one real job (~tens of ms).
	warm := testRequest()
	if j, _, err := s.Submit(warm); err != nil {
		t.Fatal(err)
	} else if _, err := s.Wait(j.ID); err != nil {
		t.Fatal(err)
	}
	release := occupyWorker(t, s)
	defer release()
	// Stack queued work ahead of the probe so the estimate is well past 1 ms.
	for seed := int64(10); seed < 13; seed++ {
		r := testRequest()
		r.Seed = seed
		if _, _, err := s.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	req := testRequest()
	req.Seed = 50
	req.DeadlineMS = 1
	_, _, err := s.Submit(req)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("infeasible-deadline submit err = %v, want ShedError", err)
	}
	if shed.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
	if st := s.Stats(); st.JobsShed != 1 {
		t.Errorf("JobsShed = %d, want 1", st.JobsShed)
	}
	// The same request without a deadline is admitted: shedding was the
	// deadline's doing, not general backpressure.
	req.DeadlineMS = 0
	if _, _, err := s.Submit(req); err != nil {
		t.Errorf("deadline-free submit rejected: %v", err)
	}
}

// TestDeadlineCoalesceExtends checks the raise-only deadline merge on
// coalescing: a patient duplicate (no deadline) must clear the queued job's
// deadline so the shared result is not lost to the first submitter's budget
// — also when it arrives at the deadline instant, racing the expiry timer.
func TestDeadlineCoalesceExtends(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 4}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	req := testRequest()
	req.DeadlineMS = 60
	j1, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	dup := testRequest() // no deadline
	j2, coalesced, err := s.Submit(dup)
	if err != nil || !coalesced || j2.ID != j1.ID {
		t.Fatalf("duplicate did not coalesce: %v %v %v", j2.ID, coalesced, err)
	}

	// At the deadline instant: s.mu is held across the deadline, with the
	// duplicate already waiting for it, so the expiry timer fires during
	// the hold. Whichever takes s.mu first, the deadline-free duplicate must
	// not be handed deadline_exceeded.
	late := testRequest()
	late.Seed = 77
	late.DeadlineMS = 40
	j3, _, err := s.Submit(late)
	if err != nil {
		t.Fatal(err)
	}
	late.DeadlineMS = 0
	adopted := make(chan Job, 1)
	s.mu.Lock()
	go func() {
		j, _, err := s.Submit(late)
		if err != nil {
			t.Error(err)
		}
		adopted <- j
	}()
	time.Sleep(time.Until(j3.Deadline) + 20*time.Millisecond)
	s.mu.Unlock()
	j4 := <-adopted

	time.Sleep(time.Until(j1.Deadline) + 20*time.Millisecond) // past the original 60 ms budget
	release()
	for _, id := range []string{j1.ID, j4.ID} {
		got, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s state = %q after patient duplicate coalesced, want done (err: %s)", id, got.State, got.Error)
		}
	}
}

// TestClassBudgetShedsBackgroundFirst checks per-class admission budgets:
// with the worker busy, background traffic over its budget is shed (429
// semantics) while interactive traffic still fills the general backlog.
func TestClassBudgetShedsBackgroundFirst(t *testing.T) {
	s := NewServer(Options{
		EvalWorkers: 1, JobWorkers: 1, Backlog: 8,
		ClassBudgets: classBudgets(1, 0, 0),
	}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	bg := testRequest()
	bg.Priority = "background"
	bg.Seed = 1
	if _, _, err := s.Submit(bg); err != nil {
		t.Fatalf("background within budget: %v", err)
	}
	bg.Seed = 2
	_, _, err := s.Submit(bg)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("background over budget err = %v, want ShedError", err)
	}
	ia := testRequest()
	ia.Seed = 3
	if _, _, err := s.Submit(ia); err != nil {
		t.Errorf("interactive refused while only background is over budget: %v", err)
	}
	if st := s.Stats(); st.JobsShed != 1 || st.JobsRejected != 0 {
		t.Errorf("JobsShed = %d, JobsRejected = %d; want 1, 0", st.JobsShed, st.JobsRejected)
	}
}

// classBudgets builds the per-class budget array readably. The prefetch
// class has no budget — speculation is admitted by the idle gate, not by
// backlog share.
func classBudgets(background, sweepLeg, interactive int) (b [pool.NumClasses]int) {
	b[pool.Background], b[pool.SweepLeg], b[pool.Interactive] = background, sweepLeg, interactive
	return b
}

// TestSweepMixedLegExpiry drives a sweep where one leg expires while queued
// and the rest complete: the expired leg folds in as deadline_exceeded, the
// remaining legs still finish (their results warm the caches), and the
// sweep handle surfaces deadline_exceeded — not a generic failure.
func TestSweepMixedLegExpiry(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer s.Close()
	release := occupyWorker(t, s)

	req := Request{Model: "Llama2-30B", Seq: 2048, Seed: 11, DeadlineMS: 600_000}
	before := time.Now()
	st, err := s.sweeps.Start(req)
	if err != nil {
		t.Fatal(err)
	}
	// The handle carries the sweep's absolute deadline, as on the router.
	if budget := 600 * time.Second; st.Deadline.Before(before.Add(budget)) || st.Deadline.After(time.Now().Add(budget)) {
		t.Errorf("handle deadline = %v, want submission + 600s (request deadline_ms)", st.Deadline)
	}
	if st.Total < 2 {
		t.Fatalf("sweep has %d legs, need >= 2 for a mixed outcome", st.Total)
	}
	// With the worker blocked every leg is still queued; expire the
	// lightest leg through the exact path its deadline timer takes
	// (stopLocked under s.mu), deterministic instead of racing real clocks.
	var expired string
	for i := len(st.Legs) - 1; i >= 0 && expired == ""; i-- {
		s.mu.Lock()
		if j := s.inflight[st.Legs[i].Fingerprint]; j != nil && s.queuedLocked(j) {
			s.stopLocked(j, StateExpired)
			expired = st.Legs[i].Config
		}
		s.mu.Unlock()
	}
	if expired == "" {
		t.Fatal("no queued leg could be expired")
	}
	release()
	final, err := s.sweeps.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateExpired {
		t.Fatalf("sweep state = %q, want %q (error: %s)", final.State, StateExpired, final.Error)
	}
	// Wait wakes at the first terminal transition (the expired leg);
	// the surviving legs keep running and fold in behind it.
	for wait := time.Now().Add(30 * time.Second); final.Completed < final.Total; {
		if time.Now().After(wait) {
			break
		}
		time.Sleep(10 * time.Millisecond)
		if final, err = s.sweeps.Lookup(st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if final.Completed != final.Total {
		t.Errorf("Completed = %d, want %d (surviving legs must still finish)", final.Completed, final.Total)
	}
	var doneLegs int
	for _, leg := range final.Legs {
		switch {
		case leg.Config == expired:
			if leg.State != StateExpired {
				t.Errorf("expired leg %s state = %q, want %q", leg.Config, leg.State, StateExpired)
			}
		case leg.State == StateDone:
			doneLegs++
		}
	}
	if doneLegs != final.Total-1 {
		t.Errorf("%d legs done, want %d", doneLegs, final.Total-1)
	}
}

// TestSweepPriorityHonored pins the PR 8 seam fix: legs carry the sweep
// body's priority end-to-end, so a high-priority sweep's legs overtake a
// background sweep's queued backlog on one worker.
func TestSweepPriorityHonored(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 32}, nil)
	defer s.Close()
	release := occupyWorker(t, s)

	bulk := Request{Model: "Llama2-30B", Seq: 2048, Seed: 21, Priority: "background"}
	bulkSt, err := s.sweeps.Start(bulk)
	if err != nil {
		t.Fatal(err)
	}
	hot := Request{Model: "Llama2-30B", Seq: 2048, Seed: 22, Priority: "interactive"}
	hotSt, err := s.sweeps.Start(hot)
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range bulkSt.Legs {
		if got, _ := s.Job(leg.JobID); got.Request.Priority != "background" {
			t.Fatalf("background sweep leg enqueued as %q", got.Request.Priority)
		}
	}
	for _, leg := range hotSt.Legs {
		if got, _ := s.Job(leg.JobID); got.Request.Priority != "interactive" {
			t.Fatalf("interactive sweep leg enqueued as %q", got.Request.Priority)
		}
	}
	release()
	if _, err := s.sweeps.Wait(context.Background(), hotSt.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sweeps.Wait(context.Background(), bulkSt.ID); err != nil {
		t.Fatal(err)
	}
	// Every interactive leg must have started before any background leg:
	// the queued-at-once backlog dispatches strictly class-first.
	var lastHot, firstBulk time.Time
	for _, leg := range hotStLegs(s, hotSt) {
		if leg.StartedAt.After(lastHot) {
			lastHot = leg.StartedAt
		}
	}
	for i, leg := range hotStLegs(s, bulkSt) {
		if i == 0 || leg.StartedAt.Before(firstBulk) {
			firstBulk = leg.StartedAt
		}
	}
	if !lastHot.Before(firstBulk) {
		t.Errorf("interactive legs did not overtake background backlog: last interactive start %v, first background start %v",
			lastHot, firstBulk)
	}
}

// hotStLegs resolves a sweep's leg jobs to their terminal records.
func hotStLegs(s *Server, st SweepStatus) []Job {
	out := make([]Job, 0, len(st.Legs))
	for _, leg := range st.Legs {
		if j, err := s.Job(leg.JobID); err == nil {
			out = append(out, j)
		}
	}
	return out
}
