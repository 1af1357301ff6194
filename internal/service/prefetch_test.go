package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/search/pool"
)

// resetSharedCaches clears the process-global evaluation caches so a test
// measuring cold-vs-warm behavior starts cold regardless of suite order.
func resetSharedCaches() {
	search.DefaultCache().Reset()
	sched.ResetCache()
}

// occupyPrefetchLane parks the single job worker on a blocking task of the
// prefetch class, so speculative submissions queue behind it while the idle
// gate (which only counts demand work) stays open.
func occupyPrefetchLane(t *testing.T, s *Server) func() {
	t.Helper()
	release := make(chan struct{})
	blocked := make(chan struct{})
	_, err := s.queue.TrySubmitTask(pool.Task{
		Fn:    func() func() { close(blocked); <-release; return func() {} },
		Class: pool.Prefetch,
	})
	if err != nil {
		t.Fatalf("could not occupy the job worker: %v", err)
	}
	<-blocked
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// settle waits for the daemon to go fully idle — queued and in-flight work
// of every class drained — so a test can assert on the post-speculation
// state deterministically.
func settle(t *testing.T, s *Server) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Stats(); st.QueueDepth == 0 && st.JobsInFlight == 0 {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("daemon did not go idle")
	return Stats{}
}

// TestSweepNeighborsEnumeration pins the neighbor generator: adjacent TP
// points first (halved before doubled), then PP steps, then sibling
// architecture rows; everything normalized, deduplicated, self excluded,
// and scheduling metadata cleared.
func TestSweepNeighborsEnumeration(t *testing.T) {
	req, err := (Request{
		Model: "Llama2-30B", Config: "config3", Batch: 64, Micro: 1, Seq: 2048,
		FixedTP: 4, Priority: "background", Criticality: 9, DeadlineMS: 50,
	}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ns := req.SweepNeighbors()
	if len(ns) < 3 {
		t.Fatalf("SweepNeighbors = %d entries, want TP neighbors plus config siblings", len(ns))
	}
	if ns[0].FixedTP != 2 || ns[1].FixedTP != 8 {
		t.Errorf("nearest neighbors = TP %d, %d; want halved (2) then doubled (8)", ns[0].FixedTP, ns[1].FixedTP)
	}
	self := req.Fingerprint()
	seen := map[string]bool{}
	for i, n := range ns {
		fp := n.Fingerprint()
		if fp == self {
			t.Errorf("neighbor %d is the request itself", i)
		}
		if seen[fp] {
			t.Errorf("neighbor %d duplicates fingerprint %s", i, fp)
		}
		seen[fp] = true
		if n.Priority != "" || n.Criticality != 0 || n.DeadlineMS != 0 {
			t.Errorf("neighbor %d kept scheduling metadata: %+v", i, n)
		}
	}
	// TP=1 has no halving neighbor: doubling comes first.
	one := req
	one.FixedTP = 1
	if ns := one.SweepNeighbors(); len(ns) == 0 || ns[0].FixedTP != 2 {
		t.Errorf("TP=1 first neighbor = %+v, want TP=2", ns)
	}
}

// TestPrefetchWarmsNeighborByteIdentical is the tentpole acceptance test:
// with the lane on, a completed demand job speculatively evaluates its
// nearest sweep neighbor; the next demand submission of that neighbor is a
// prefetch-attributed warm hit, and its canonical record is byte-identical
// to the same request demand-evaluated on a cold daemon.
func TestPrefetchWarmsNeighborByteIdentical(t *testing.T) {
	resetSharedCaches()
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16, Prefetch: true, PrefetchFanout: 1}, nil)
	defer s.Close()

	step1 := Request{Model: "Llama2-30B", Config: "config3", Batch: 64, Micro: 1, Seq: 2048, FixedTP: 1}
	j, _, err := s.Submit(step1)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = s.Wait(j.ID); err != nil || j.State != StateDone {
		t.Fatalf("demand step 1: %v (%s %s)", err, j.State, j.Error)
	}
	// Speculation launches on its own goroutine after the demand job
	// completes — wait for it to be issued before waiting for idle.
	deadline := time.Now().Add(30 * time.Second)
	for s.Stats().PrefetchIssued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no speculation issued after a demand completion with the lane on")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := settle(t, s) // speculation (TP=2, the nearest neighbor) completes
	if st.HitsPrefetch != 0 || st.PrefetchUseful != 0 {
		t.Fatalf("prefetch credited before any demand use: %+v", st)
	}

	step2 := step1
	step2.FixedTP = 2
	j2, _, err := s.Submit(step2)
	if err != nil {
		t.Fatal(err)
	}
	if j2, err = s.Wait(j2.ID); err != nil || j2.State != StateDone {
		t.Fatalf("demand step 2: %v (%s %s)", err, j2.State, j2.Error)
	}
	st = s.Stats()
	if st.HitsPrefetch != 1 || st.PrefetchUseful != 1 {
		t.Errorf("warm-hit attribution = hits_prefetch %d, prefetch_useful %d; want 1, 1",
			st.HitsPrefetch, st.PrefetchUseful)
	}
	if st.HitsDemand != 0 {
		t.Errorf("hits_demand = %d on a prefetch-warmed fingerprint, want 0", st.HitsDemand)
	}

	// Byte identity: the same request on a cold daemon with no prefetch.
	resetSharedCaches()
	ref := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer ref.Close()
	rj, _, err := ref.Submit(step2)
	if err != nil {
		t.Fatal(err)
	}
	if rj, err = ref.Wait(rj.ID); err != nil || rj.State != StateDone {
		t.Fatalf("reference run: %v (%s %s)", err, rj.State, rj.Error)
	}
	if j2.Result.Canonical != rj.Result.Canonical {
		t.Errorf("prefetch-warmed canonical record differs from cold demand evaluation (%d vs %d bytes)",
			len(j2.Result.Canonical), len(rj.Result.Canonical))
	}
}

// TestPrefetchCancelledByDemand pins the preemption contract: the
// submission that admits demand work stops every queued speculative job
// first, each lands unexecuted in StateCancelled (a terminal state pollers
// can observe) and is counted as cancelled, and the demand work proceeds
// untouched.
func TestPrefetchCancelledByDemand(t *testing.T) {
	// Every queued speculation is stopped, not just the next to dispatch,
	// and a demand duplicate of a preempted fingerprint, sent at once, runs
	// as a fresh job instead of adopting the cancelled one.
	t.Run("preempts_queued_speculation", func(t *testing.T) {
		s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
		defer s.Close()
		release := occupyPrefetchLane(t, s)
		defer release()
		specs := queueSpeculation(t, s, 3)

		dj, _, err := s.Submit(testRequest())
		if err != nil {
			t.Fatal(err)
		}
		dup := specs[0].Request
		dup.Priority = ""
		dupJob, coalesced, err := s.Submit(dup)
		if err != nil || coalesced || dupJob.ID == specs[0].ID {
			t.Fatalf("demand duplicate of a preempted fingerprint: job %s coalesced=%v err=%v, want a fresh job", dupJob.ID, coalesced, err)
		}
		checkPreempted(t, s, specs)
		release()
		checkDemandDone(t, s, dj.ID, dupJob.ID)
	})
	// Preemption runs before the demand submission takes a backlog slot, so
	// a backlog full of speculation still admits demand.
	t.Run("full_backlog_admits_demand", func(t *testing.T) {
		const backlog = 3
		s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: backlog}, nil)
		defer s.Close()
		release := occupyPrefetchLane(t, s)
		defer release()
		specs := queueSpeculation(t, s, backlog)

		dj, _, err := s.Submit(testRequest())
		if err != nil {
			t.Fatalf("demand refused behind a backlog full of speculation: %v", err)
		}
		checkPreempted(t, s, specs)
		release()
		checkDemandDone(t, s, dj.ID)
	})
}

// queueSpeculation queues n speculative jobs (Llama2-30B config3 at TP 1, 2,
// 4, ...) behind a parked job worker and checks they are all still queued.
func queueSpeculation(t *testing.T, s *Server, n int) []Job {
	t.Helper()
	var specs []Job
	for tp := 1; len(specs) < n; tp *= 2 {
		pj, coalesced, err := s.Submit(Request{Model: "Llama2-30B", Config: "config3", Batch: 64, Micro: 1, Seq: 2048,
			FixedTP: tp, Priority: "prefetch"})
		if err != nil || coalesced {
			t.Fatalf("speculative submit TP=%d: %v (coalesced %v)", tp, err, coalesced)
		}
		specs = append(specs, pj)
	}
	if st := s.Stats(); st.PrefetchIssued != uint64(n) || st.QueuePrefetch != n || st.QueueDepth != n || st.JobsSubmitted != 0 {
		t.Fatalf("after speculative submits: %+v, want prefetch_issued, queue_prefetch and queue_depth %d, jobs_submitted 0", st, n)
	}
	return specs
}

// checkPreempted checks every one of specs ended cancelled without running
// and the counters saw each of them.
func checkPreempted(t *testing.T, s *Server, specs []Job) {
	t.Helper()
	for _, pj := range specs {
		got, err := s.Wait(pj.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateCancelled {
			t.Fatalf("preempted speculation %s state = %s, want %s", got.Request.Fingerprint(), got.State, StateCancelled)
		}
		if got.Result != nil || !got.StartedAt.IsZero() {
			t.Errorf("preempted speculation %s executed", got.Request.Fingerprint())
		}
	}
	if st := s.Stats(); st.PrefetchCancelled != uint64(len(specs)) || st.QueuePrefetch != 0 {
		t.Errorf("after preemption: prefetch_cancelled %d, queue_prefetch %d; want %d, 0",
			st.PrefetchCancelled, st.QueuePrefetch, len(specs))
	}
}

// checkDemandDone waits for the demand jobs ids and checks each ended done
// and the demand counters saw only them.
func checkDemandDone(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if j, err := s.Wait(id); err != nil || j.State != StateDone {
			t.Fatalf("demand job after preemption: %v (%s %s)", err, j.State, j.Error)
		}
	}
	if st := s.Stats(); st.JobsDone != uint64(len(ids)) || st.JobsFailed != 0 {
		t.Errorf("demand counters = done %d, failed %d; want %d, 0 (speculation must stay invisible)",
			st.JobsDone, st.JobsFailed, len(ids))
	}
}

// TestPrefetchSiblingThenSweepByteIdentical drives the lane-on path a Table
// II sweep takes after a single-config job: the job's sibling-config
// speculation is queued when the sweep of the same request arrives. Legs
// that coalesce onto speculation adopt it as demand work, the first fresh
// leg preempts the rest, and a leg whose speculation was preempted runs
// fresh — the sweep ends done, byte-identical to a cold lane-off sweep.
func TestPrefetchSiblingThenSweepByteIdentical(t *testing.T) {
	resetSharedCaches()
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16, Prefetch: true}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	one, err := (Request{Model: "Llama2-30B", Config: "config3", Seq: 2048}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(one)
	if err != nil {
		t.Fatal(err)
	}
	// Park the worker on a prefetch-class task that dispatches right after
	// the job, so the speculation its completion issues stays queued.
	lane, laneStarted := make(chan struct{}), make(chan struct{})
	defer close(lane)
	if _, err := s.queue.TrySubmitTask(pool.Task{
		Fn:    func() func() { close(laneStarted); <-lane; return func() {} },
		Class: pool.Prefetch,
	}); err != nil {
		t.Fatal(err)
	}
	release()
	if j, err = s.Wait(j.ID); err != nil || j.State != StateDone {
		t.Fatalf("single-config job: %v (%s %s)", err, j.State, j.Error)
	}
	<-laneStarted
	siblings := min(3, len(one.SweepNeighbors())) // the default fanout
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if st := s.Stats(); st.PrefetchIssued == uint64(siblings) && st.QueuePrefetch == siblings {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sibling speculation never queued: %+v", s.Stats())
		}
	}

	sweep := Request{Model: "Llama2-30B", Seq: 2048}
	st, err := s.sweeps.Start(sweep)
	if err != nil {
		t.Fatal(err)
	}
	lane <- struct{}{}
	final, err := s.sweeps.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("lane-on sweep after sibling speculation = %s (%s), want done", final.State, final.Error)
	}

	resetSharedCaches()
	ref := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer ref.Close()
	want, err := ref.Sweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Canonical != want.Result.Canonical {
		t.Errorf("lane-on sweep canonical differs from a cold lane-off sweep (%d vs %d bytes)",
			len(final.Result.Canonical), len(want.Result.Canonical))
	}
}

// TestPrefetchRefusedWhenBusy pins the idle gate: while demand work is in
// flight, speculative submissions are refused outright (ErrBusy) and leave
// no job record behind.
func TestPrefetchRefusedWhenBusy(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	defer s.Close()
	release := occupyWorker(t, s) // demand-class blocker
	defer release()

	_, _, err := s.Submit(Request{Model: "Llama2-30B", Config: "config3", Batch: 64, Micro: 1, Seq: 2048,
		FixedTP: 2, Priority: "prefetch"})
	if err != ErrBusy {
		t.Fatalf("speculative submit under demand load: %v, want ErrBusy", err)
	}
	if st := s.Stats(); st.PrefetchIssued != 0 || st.JobsRejected != 0 {
		t.Errorf("refused speculation touched counters: %+v", st)
	}
}

// TestSweepLegPrefetchClamp pins the leg-priority floor: a sweep submitted
// at prefetch priority enqueues its legs at sweep-leg class — a
// prefetch-class leg would be cancelled by the first demand arrival and
// wedge the merge barrier — while explicit demand priorities still
// propagate (the PR 9 contract).
func TestSweepLegPrefetchClamp(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 64}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	if _, err := s.sweeps.Start(Request{Model: "Llama2-30B", Seq: 2048, Priority: "prefetch"}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.QueuePrefetch != 0 || st.QueueSweepLeg == 0 {
		t.Errorf("prefetch-priority sweep queued as prefetch=%d sweep-leg=%d; want all legs sweep-leg",
			st.QueuePrefetch, st.QueueSweepLeg)
	}

	// Explicit demand priority still propagates to the legs unchanged.
	if _, err := s.sweeps.Start(Request{Model: "Llama2-30B", Seq: 2048, Seed: 2, Priority: "interactive"}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.QueueInteractive == 0 {
		t.Errorf("interactive sweep queued no interactive legs: %+v", st)
	}
}

// TestTraceRecordsDemandOnly pins what the predictor learns from: demand
// submissions (fresh and coalesced) enter the trace in arrival order;
// speculative submissions never do.
func TestTraceRecordsDemandOnly(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	defer s.Close()
	release := occupyPrefetchLane(t, s)
	defer release()

	// Speculate first (the idle gate would refuse once demand queues up);
	// the demand arrival below preempts it, which is itself correct.
	a := testRequest()
	spec := a
	spec.Seed = 99
	spec.Priority = "prefetch"
	if _, _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	ja, _, err := s.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(a); err != nil { // coalesces; still a demand arrival
		t.Fatal(err)
	}
	tr := s.Trace()
	if tr.Len != 2 {
		t.Fatalf("trace has %d entries, want 2 (fresh + coalesced demand, no speculation)", tr.Len)
	}
	wantFP := ja.Fingerprint
	for i, e := range tr.Entries {
		if e.Fingerprint != wantFP {
			t.Errorf("trace[%d].Fingerprint = %s, want %s", i, e.Fingerprint, wantFP)
		}
		if e.Req.Model != "Llama2-30B" {
			t.Errorf("trace[%d] decoded coordinates = %+v", i, e.Req)
		}
	}
	if st := s.Stats(); st.TraceLen != 2 {
		t.Errorf("Stats.TraceLen = %d, want 2", st.TraceLen)
	}
}

// TestTraceEndpointAndSnapshotRoundTrip drives the trace over the HTTP
// surface and through the snapshot file: GET /v1/trace serves the ring, a
// snapshot save persists it alongside the caches, and a restarted server
// restores it entry for entry.
func TestTraceEndpointAndSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8, SnapshotPath: path}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for seed := int64(1); seed <= 3; seed++ {
		req := testRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = s.Wait(j.ID); err != nil || j.State != StateDone {
			t.Fatalf("seed %d: %v (%s)", seed, err, j.State)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var over TraceInfo
	if err := json.NewDecoder(resp.Body).Decode(&over); err != nil {
		t.Fatal(err)
	}
	if over.Len != 3 || len(over.Entries) != 3 {
		t.Fatalf("GET /v1/trace = %d entries, want 3", over.Len)
	}

	info, err := s.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.TraceEntries != 3 {
		t.Errorf("snapshot recorded %d trace entries, want 3", info.TraceEntries)
	}
	s.Close()

	s2 := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, nil)
	defer s2.Close()
	info, err = s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.TraceEntries != 3 {
		t.Errorf("restore reported %d trace entries, want 3", info.TraceEntries)
	}
	restored := s2.Trace()
	if len(restored.Entries) != 3 {
		t.Fatalf("restored trace has %d entries, want 3", len(restored.Entries))
	}
	for i, e := range restored.Entries {
		if e.Fingerprint != over.Entries[i].Fingerprint || !e.At.Equal(over.Entries[i].At) {
			t.Errorf("restored[%d] = %+v, want %+v", i, e, over.Entries[i])
		}
	}
}
