package service

import (
	"encoding/gob"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/search/pool"
)

// testRequest is the standard job of this suite: a single-architecture
// Llama2-30B search, cheap enough to run many times.
func testRequest() Request {
	return Request{Model: "Llama2-30B", Config: "config3", Batch: 64, Micro: 1, Seq: 2048, Seed: 7}
}

// submitInteractive queues fn on the daemon's job queue at Interactive
// priority through TrySubmitTask, the daemon's own admission point, and
// reports whether the queue accepted it. Tests use it to park a worker.
func submitInteractive(s *Server, fn func()) bool {
	_, err := s.queue.TrySubmitTask(pool.Task{Fn: func() func() { fn(); return func() {} }, Class: pool.Interactive})
	return err == nil
}

func TestRequestNormalize(t *testing.T) {
	// Zero values take the CLI defaults.
	n, err := (Request{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Model != "Llama2-30B" || n.Batch != 64 || n.Micro != 1 || n.Seq != 4096 {
		t.Errorf("normalized zero request = %+v, want CLI defaults (Llama2-30B, 64, 1, 4096)", n)
	}
	// Explicit and defaulted forms of the same job share one fingerprint.
	a, err := (Request{Model: "Llama2-30B", Batch: 64, Micro: 1}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != n.Fingerprint() {
		t.Errorf("fingerprints differ:\n %s\n %s", a.Fingerprint(), n.Fingerprint())
	}
	// Bad names are rejected at normalization.
	if _, err := (Request{Model: "no-such-model"}).Normalize(); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := (Request{Config: "config9"}).Normalize(); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := (Request{Batch: 2, Micro: 4}).Normalize(); err == nil {
		t.Error("invalid workload accepted")
	}
	// A negative pin would run as the default search under a second
	// fingerprint; both tiers answer the error with 400.
	for _, bad := range []Request{{MaxTP: -1}, {FixedTP: -2}, {FixedPP: -4}, {PipelineWafers: -1}} {
		if _, err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%+v normalized with error %v, want a negative-field error", bad, err)
		}
	}
}

// TestJobByteIdenticalToInProcessSearch is the acceptance check: a job
// served over the HTTP API carries an exploration record byte-identical to
// the same search run in-process via sched.Search.
func TestJobByteIdenticalToInProcessSearch(t *testing.T) {
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	s := NewServer(Options{EvalWorkers: 1}, pred)
	defer s.Close()

	j, _, err := s.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	j, err = s.Wait(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone || j.Result == nil {
		t.Fatalf("job finished %s (error %q)", j.State, j.Error)
	}

	// The same search, in-process, with the same predictor.
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	direct, err := sched.Search(hw.Config3(), model.Llama2_30B(), work, pred,
		sched.Options{Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := "arch=config3 err=<nil>\n" + direct.Canonical()
	if j.Result.Canonical != want {
		t.Errorf("service canonical record differs from in-process search (%d vs %d bytes)",
			len(j.Result.Canonical), len(want))
	}
	if j.Result.BestArch != "config3" || j.Result.TP != direct.Best.TP || j.Result.PP != direct.Best.PP {
		t.Errorf("summary (%s, TP=%d, PP=%d) disagrees with direct best (TP=%d, PP=%d)",
			j.Result.BestArch, j.Result.TP, j.Result.PP, direct.Best.TP, direct.Best.PP)
	}
}

// TestDedupCoalescesIdenticalJobs pins the singleflight contract: with the
// single job worker deterministically blocked, identical submissions
// coalesce onto one queued execution and the dedup counter records them.
func TestDedupCoalescesIdenticalJobs(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	defer s.Close()

	// Occupy the only worker so submissions stay queued.
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	<-blocked

	j1, coalesced, err := s.Submit(testRequest())
	if err != nil || coalesced {
		t.Fatalf("first submit: coalesced=%v err=%v", coalesced, err)
	}
	j2, coalesced, err := s.Submit(testRequest())
	if err != nil || !coalesced {
		t.Fatalf("identical second submit: coalesced=%v err=%v", coalesced, err)
	}
	if j2.ID != j1.ID {
		t.Errorf("second submit got job %s, want coalescing onto %s", j2.ID, j1.ID)
	}
	// A different request must not coalesce.
	other := testRequest()
	other.Seed = 8
	j3, coalesced, err := s.Submit(other)
	if err != nil || coalesced {
		t.Fatalf("distinct submit: coalesced=%v err=%v", coalesced, err)
	}
	if j3.ID == j1.ID {
		t.Error("distinct request coalesced onto an unrelated job")
	}

	st := s.Stats()
	if st.JobsSubmitted != 2 || st.JobsCoalesced != 1 {
		t.Errorf("stats = %d submitted / %d coalesced, want 2 / 1", st.JobsSubmitted, st.JobsCoalesced)
	}
	if got := st.DedupRate(); got <= 0.33 || got >= 0.34 {
		t.Errorf("DedupRate = %g, want 1/3", got)
	}

	close(release)
	j1done, err := s.Wait(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j1done.State != StateDone {
		t.Fatalf("coalesced job finished %s (%s)", j1done.State, j1done.Error)
	}
	if j1done.Coalesced != 1 {
		t.Errorf("job carries coalesced=%d, want 1", j1done.Coalesced)
	}
	// Completed jobs leave the in-flight table: a repeat submission now
	// runs as a new job (served from the warm candidate cache).
	j4, coalesced, err := s.Submit(testRequest())
	if err != nil || coalesced {
		t.Fatalf("post-completion submit: coalesced=%v err=%v", coalesced, err)
	}
	if j4.ID == j1.ID {
		t.Error("post-completion submit reused the finished job")
	}
}

// TestBacklogRejection checks the bounded queue turns overflow into ErrBusy
// and counts it.
func TestBacklogRejection(t *testing.T) {
	s := NewServer(Options{JobWorkers: 1, Backlog: 1}, nil)
	defer s.Close()
	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	defer close(release)
	<-blocked

	r1 := testRequest()
	if _, _, err := s.Submit(r1); err != nil {
		t.Fatalf("backlog submit: %v", err)
	}
	r2 := testRequest()
	r2.Seed = 99
	if _, _, err := s.Submit(r2); err != ErrBusy {
		t.Fatalf("overflow submit err = %v, want ErrBusy", err)
	}
	// The rejected job must not linger as a ghost: its fingerprint is free
	// to resubmit and it is absent from listings.
	for _, sum := range s.Jobs() {
		if sum.Fingerprint == r2.mustFingerprint(t) {
			t.Error("rejected job still listed")
		}
	}
	if st := s.Stats(); st.JobsRejected != 1 {
		t.Errorf("JobsRejected = %d, want 1", st.JobsRejected)
	}
}

func (r Request) mustFingerprint(t *testing.T) string {
	t.Helper()
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n.Fingerprint()
}

// TestSnapshotWarmRestart pins the acceptance criterion: a daemon restarted
// from a snapshot answers a previously-seen job from cache without a single
// re-simulation, byte-identically.
func TestSnapshotWarmRestart(t *testing.T) {
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	path := t.TempDir() + "/cache.snapshot"

	// First daemon lifetime: run the job, persist the caches on Close.
	s1 := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, pred)
	j1, _, err := s1.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	j1, err = s1.Wait(j1.ID)
	if err != nil || j1.State != StateDone {
		t.Fatalf("first run: %v / %+v", err, j1.State)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process "restart": cold caches, fresh server, same predictor stack.
	sched.ResetCache()
	search.DefaultCache().Reset()
	s2 := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, pred)
	defer s2.Close()
	info, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if info.Candidates == 0 || info.Eval == 0 {
		t.Fatalf("snapshot restored %d candidates / %d evals, want both > 0", info.Candidates, info.Eval)
	}

	candBefore := sched.CacheStats()
	evalBefore := search.DefaultCache().Stats()
	j2, _, err := s2.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	j2, err = s2.Wait(j2.ID)
	if err != nil || j2.State != StateDone {
		t.Fatalf("warm run: %v / %+v", err, j2.State)
	}
	if j2.Result.Canonical != j1.Result.Canonical {
		t.Errorf("warm-restart result differs from the original (%d vs %d bytes)",
			len(j2.Result.Canonical), len(j1.Result.Canonical))
	}
	candAfter := sched.CacheStats()
	evalAfter := search.DefaultCache().Stats()
	if misses := candAfter.Misses - candBefore.Misses; misses != 0 {
		t.Errorf("warm job missed the candidate cache %d times, want 0", misses)
	}
	if hits := candAfter.Hits - candBefore.Hits; hits != uint64(j2.Result.Explored) {
		t.Errorf("warm job hit the candidate cache %d times, want %d (every candidate)", hits, j2.Result.Explored)
	}
	if misses := evalAfter.Misses - evalBefore.Misses; misses != 0 {
		t.Errorf("warm job re-simulated %d strategies, want 0", misses)
	}
}

// TestSnapshotStaleOnPredictorMismatch checks a snapshot saved under a
// different predictor identity is refused rather than aliased.
func TestSnapshotStaleOnPredictorMismatch(t *testing.T) {
	path := t.TempDir() + "/cache.snapshot"
	predA := predictor.NewLookupTable(predictor.TileLevel{})
	s1 := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, predA)
	if _, err := s1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	predB := predictor.NewLookupTable(predictor.TileLevel{})
	s2 := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, predB)
	defer s2.Close()
	if _, err := s2.LoadSnapshot(); err != ErrStaleSnapshot {
		t.Errorf("LoadSnapshot with a different predictor = %v, want ErrStaleSnapshot", err)
	}
	// A missing file reports ErrNoSnapshot.
	s3 := NewServer(Options{SnapshotPath: path + ".missing"}, predA)
	defer s3.Close()
	if _, err := s3.LoadSnapshot(); err != ErrNoSnapshot {
		t.Errorf("LoadSnapshot on missing file = %v, want ErrNoSnapshot", err)
	}

	// Cross-process ordinal collision: a snapshot whose header carries this
	// predictor's ordinal but a different semantic signature (another
	// process registered a different predictor first) must be refused.
	doctored := t.TempDir() + "/doctored.snapshot"
	f, err := os.Create(doctored)
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(f)
	hdr := snapshotHeader{
		Magic:        snapshotMagic,
		Format:       snapshotFormat,
		Scheme:       search.FingerprintSchemeVersion,
		Predictor:    search.PredictorID(predA),
		PredictorSig: "lookup(predictor.Analytical)", // not predA's stack
	}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(snapshotBody{}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s4 := NewServer(Options{SnapshotPath: doctored}, predA)
	defer s4.Close()
	if _, err := s4.LoadSnapshot(); err != ErrStaleSnapshot {
		t.Errorf("LoadSnapshot with colliding ordinal but foreign signature = %v, want ErrStaleSnapshot", err)
	}
}

// TestCanonicalMultiArch checks the canonical record covers every
// architecture of a sweep in order.
func TestCanonicalMultiArch(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 0}, nil)
	defer s.Close()
	req := Request{Model: "Llama2-30B", Seq: 2048} // full Table II sweep
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j, err = s.Wait(j.ID)
	if err != nil || j.State != StateDone {
		t.Fatalf("sweep job: %v / %s (%s)", err, j.State, j.Error)
	}
	if len(j.Result.PerArch) != 4 {
		t.Fatalf("sweep covered %d architectures, want 4", len(j.Result.PerArch))
	}
	for _, name := range []string{"config1", "config2", "config3", "config4"} {
		if !strings.Contains(j.Result.Canonical, "arch="+name+" ") {
			t.Errorf("canonical record missing arch=%s", name)
		}
	}
}

// TestHistoryEviction checks a resident server bounds its terminal job
// records: the oldest done jobs are evicted, live ones stay listed.
func TestHistoryEviction(t *testing.T) {
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
	listed := s.Jobs()
	if len(listed) != 2 {
		t.Fatalf("listing holds %d jobs with History=2, want 2", len(listed))
	}
	if listed[0].ID != ids[2] || listed[1].ID != ids[3] {
		t.Errorf("retained jobs = %s, %s; want the two newest (%s, %s)",
			listed[0].ID, listed[1].ID, ids[2], ids[3])
	}
	for _, id := range ids[:2] {
		if _, err := s.Job(id); !errors.Is(err, jobs.ErrGone) {
			t.Errorf("evicted job %s: err = %v, want ErrGone", id, err)
		}
	}
}

// TestHistoryEvictsEarliestFinished checks History evicts by finish time,
// not submission time: a background job submitted first but finished last
// is the fresh result and survives, while the two interactive jobs that
// overtook it and finished earlier are evicted.
func TestHistoryEvictsEarliestFinished(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8, History: 1}, nil)
	defer s.Close()
	release := occupyWorker(t, s)
	defer release()
	submit := func(seed int64, priority string) Job {
		t.Helper()
		req := testRequest()
		req.Seed, req.Priority = seed, priority
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	bg := submit(1, "background")
	early := []Job{submit(2, "interactive"), submit(3, "interactive")}
	release()
	last, err := s.Wait(bg.ID)
	if err != nil || last.State != StateDone {
		t.Fatalf("background job: %v (%s %s)", err, last.State, last.Error)
	}
	if got, err := s.Job(bg.ID); err != nil || got.State != StateDone {
		t.Errorf("last-finished job %s: %v (%s), want retained and done", bg.ID, err, got.State)
	}
	for _, j := range early {
		if _, err := s.Job(j.ID); !errors.Is(err, jobs.ErrGone) {
			t.Errorf("earlier-finished job %s: err = %v, want ErrGone", j.ID, err)
		}
	}
}

// TestWaitUnknownJob checks Wait errors immediately on unknown job IDs.
func TestWaitUnknownJob(t *testing.T) {
	s := NewServer(Options{}, nil)
	defer s.Close()
	if _, err := s.Wait("job-404"); err == nil {
		t.Error("Wait on unknown job succeeded")
	}
}
