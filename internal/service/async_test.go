package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// sweepRequest is the full Table II sweep used across the async tests.
func sweepRequest() Request { return Request{Model: "Llama2-30B", Seq: 2048} }

// TestAsyncSweepHandle checks the tentpole flow: Start returns a
// running handle immediately, legs fold in incrementally, and the final
// merged record is byte-identical to the same sweep run as one job.
func TestAsyncSweepHandle(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 0, JobWorkers: 2, Backlog: 16}, nil)
	defer s.Close()

	st, err := s.sweeps.Start(sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 4 || len(st.Legs) != 4 {
		t.Fatalf("handle = %+v, want 4 legs and an ID", st)
	}
	if st.State.Terminal() {
		t.Fatalf("handle already terminal at submit: %s", st.State)
	}
	for _, leg := range st.Legs {
		if leg.JobID == "" || leg.Fingerprint == "" {
			t.Errorf("leg %s missing its job ref: %+v", leg.Config, leg)
		}
		if leg.Criticality <= 0 {
			t.Errorf("leg %s has no criticality estimate", leg.Config)
		}
	}

	final, err := s.sweeps.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Completed != 4 || final.Result == nil {
		t.Fatalf("final handle = state %s, %d/4 legs, result %v (%s)",
			final.State, final.Completed, final.Result != nil, final.Error)
	}
	for _, leg := range final.Legs {
		if leg.State != StateDone || leg.Result == nil {
			t.Errorf("leg %s = %s with result %v, want done with a partial row",
				leg.Config, leg.State, leg.Result != nil)
		}
	}

	// Byte-identity: the async merge equals the one unscattered sweep job.
	j, _, err := s.Submit(sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if j, err = s.Wait(j.ID); err != nil || j.State != StateDone {
		t.Fatalf("single sweep job: %v / %s (%s)", err, j.State, j.Error)
	}
	if final.Result.Canonical != j.Result.Canonical {
		t.Errorf("async merged record differs from single-job sweep (%d vs %d bytes)",
			len(final.Result.Canonical), len(j.Result.Canonical))
	}
	if st := s.Stats(); st.SweepsRun != 1 {
		t.Errorf("SweepsRun = %d, want 1", st.SweepsRun)
	}
}

// TestInteractiveJumpsSweepBacklog is the acceptance pin for priority
// dispatch: with one job worker gated, an async Table II sweep queues four
// legs; an interactive job submitted after them must run first and finish
// while the sweep is still going.
func TestInteractiveJumpsSweepBacklog(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer s.Close()

	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	<-blocked

	sw, err := s.sweeps.Start(sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	interactive := testRequest()
	interactive.Seed = 42 // distinct from every leg fingerprint
	ij, _, err := s.Submit(interactive)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.QueueSweepLeg != 4 || st.QueueInteractive != 1 {
		t.Fatalf("queue lanes = %d sweep-leg / %d interactive, want 4 / 1",
			st.QueueSweepLeg, st.QueueInteractive)
	}

	close(release)
	ijDone, err := s.Wait(ij.ID)
	if err != nil || ijDone.State != StateDone {
		t.Fatalf("interactive job: %v / %s (%s)", err, ijDone.State, ijDone.Error)
	}
	// The single worker dispatched the interactive job before any leg, so
	// at the moment it finished the sweep cannot have completed.
	mid, err := s.sweeps.Lookup(sw.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State.Terminal() {
		t.Error("sweep already terminal when the interactive job finished")
	}

	final, err := s.sweeps.Wait(context.Background(), sw.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("sweep: %v / %s (%s)", err, final.State, final.Error)
	}
	if !ijDone.FinishedAt.Before(final.FinishedAt) {
		t.Errorf("interactive finished at %v, sweep at %v — interactive must win",
			ijDone.FinishedAt, final.FinishedAt)
	}
	// Every leg started after the interactive job finished.
	for _, leg := range final.Legs {
		j, err := s.Job(leg.JobID)
		if err != nil {
			t.Fatalf("leg job %s: %v", leg.JobID, err)
		}
		if j.StartedAt.Before(ijDone.FinishedAt) {
			t.Errorf("leg %s started %v, before the interactive job finished %v",
				leg.Config, j.StartedAt, ijDone.FinishedAt)
		}
	}
}

// TestPromoteOnCoalesce checks priority-inversion avoidance: an interactive
// submission that coalesces onto a queued sweep leg promotes the leg into
// the interactive lane instead of waiting at bulk priority.
func TestPromoteOnCoalesce(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer s.Close()
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	<-blocked

	sw, err := s.sweeps.Start(sweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	dup := sweepRequest()
	dup.Config = "config2" // same fingerprint as the config2 leg
	j, coalesced, err := s.Submit(dup)
	if err != nil || !coalesced {
		t.Fatalf("duplicate submit: coalesced=%v err=%v", coalesced, err)
	}
	var legJob string
	for _, leg := range sw.Legs {
		if leg.Config == "config2" {
			legJob = leg.JobID
		}
	}
	if j.ID != legJob {
		t.Fatalf("duplicate landed on job %s, want the config2 leg %s", j.ID, legJob)
	}
	if st := s.Stats(); st.QueueInteractive != 1 || st.QueueSweepLeg != 3 {
		t.Errorf("queue lanes after promote = %d interactive / %d sweep-leg, want 1 / 3",
			st.QueueInteractive, st.QueueSweepLeg)
	}
	close(release)
	if _, err := s.sweeps.Wait(context.Background(), sw.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWaitHonorsClientContext pins the blocking flow's lifetime: a
// ?wait=1 sweep whose client has gone away frees its handler at once
// (500), while the handle and its legs keep running.
func TestSweepWaitHonorsClientContext(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 16}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweeps?wait=1",
		strings.NewReader(`{"model": "Llama2-30B", "seq": 2048}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(served)
	}()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("?wait=1 handler still blocked after its client went away")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("abandoned ?wait=1 sweep answered %d, want 500", rec.Code)
	}
	if st := s.Stats(); st.SweepsRunning != 1 {
		t.Errorf("sweeps_running = %d after the client left, want 1 (the handle outlives the request)", st.SweepsRunning)
	}
}

// TestSweepHandleEviction checks the bounded handle store end to end: with
// SweepHistory=1 the older terminal handle is evicted and polls for it
// report gone (410), while a never-issued ID reports unknown (404).
func TestSweepHandleEviction(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, SweepHistory: 1, SweepTTL: -1}, nil)
	defer s.Close()
	first, err := s.Sweep(Request{Model: "Llama2-30B", Config: "config3", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	_ = first
	second, err := s.Sweep(Request{Model: "Llama2-30B", Config: "config2", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	_ = second
	if _, err := s.sweeps.Lookup("swp-1"); !errors.Is(err, jobs.ErrGone) {
		t.Errorf("evicted handle: err = %v, want ErrGone", err)
	}
	if got := LookupStatus(jobs.ErrGone); got != 410 {
		t.Errorf("LookupStatus(ErrGone) = %d, want 410", got)
	}
	if _, err := s.sweeps.Lookup("swp-2"); err != nil {
		t.Errorf("retained handle: %v", err)
	}
	if _, err := s.sweeps.Lookup("swp-99"); !errors.Is(err, jobs.ErrUnknown) {
		t.Errorf("never-issued handle: err = %v, want ErrUnknown", err)
	}
	if st := s.Stats(); st.SweepsEvicted != 1 || st.SweepsRetained != 1 {
		t.Errorf("sweep gauges = %d evicted / %d retained, want 1 / 1",
			st.SweepsEvicted, st.SweepsRetained)
	}
}

// TestJobEvictedVsUnknown pins the 404-vs-410 distinction on the job
// store and on GET /v1/jobs/{id}: evicted IDs are gone (410), never-issued
// IDs are unknown (404).
func TestJobEvictedVsUnknown(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, History: 2}, nil)
	defer s.Close()
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		req := testRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Wait(j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids[:2] {
		if _, err := s.Job(id); !errors.Is(err, jobs.ErrGone) {
			t.Errorf("Job(%s) err = %v for an evicted job, want ErrGone", id, err)
		}
	}
	for _, id := range []string{"job-999", "swp-1", "garbage", "job-x"} {
		if _, err := s.Job(id); !errors.Is(err, jobs.ErrUnknown) {
			t.Errorf("Job(%s) err = %v for a never-issued ID, want ErrUnknown", id, err)
		}
	}
	if _, err := s.Job(ids[3]); err != nil {
		t.Errorf("live record %s: %v", ids[3], err)
	}
	if st := s.Stats(); st.JobsEvicted != 2 {
		t.Errorf("JobsEvicted = %d, want 2", st.JobsEvicted)
	}
	h := s.Handler()
	for id, want := range map[string]int{ids[0]: http.StatusGone, "job-999": http.StatusNotFound, ids[3]: http.StatusOK} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if rec.Code != want {
			t.Errorf("GET /v1/jobs/%s = %d (%s), want %d", id, rec.Code, strings.TrimSpace(rec.Body.String()), want)
		}
	}
}

// TestHistoryTTLExpiry checks terminal job records expire by age even when
// the History cap is far from reached.
func TestHistoryTTLExpiry(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, HistoryTTL: time.Nanosecond}, nil)
	defer s.Close()
	j, _, err := s.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j.ID); err != nil {
		t.Fatal(err)
	}
	// Any later submission triggers eviction; the nanosecond TTL has long
	// lapsed by then.
	req := testRequest()
	req.Seed = 2
	j2, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(j2.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Job(j.ID); !errors.Is(err, jobs.ErrGone) {
		t.Errorf("TTL-expired job: err = %v, want ErrGone", err)
	}
}

// TestRequestPriorityValidation checks Priority is validated but never part
// of the fingerprint: the same work at different priorities must coalesce.
func TestRequestPriorityValidation(t *testing.T) {
	if _, err := (Request{Priority: "turbo"}).Normalize(); err == nil {
		t.Error("unknown priority accepted")
	}
	base := testRequest()
	hi := base
	hi.Priority = "interactive"
	lo := base
	lo.Priority = "background"
	lo.Criticality = 7
	a, _ := base.Normalize()
	b, _ := hi.Normalize()
	c, _ := lo.Normalize()
	if a.Fingerprint() != b.Fingerprint() || a.Fingerprint() != c.Fingerprint() {
		t.Error("priority fields leaked into the fingerprint")
	}
}
