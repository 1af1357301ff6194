package service

import (
	"testing"
)

// TestExpandSweep checks sweep expansion: the Table II sweep splits into the
// four configurations in order, a pinned config sweeps over itself, and
// validation failures surface at expansion.
func TestExpandSweep(t *testing.T) {
	norm, parts, err := ExpandSweep(Request{Model: "Llama2-30B", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if norm.Config != "" || len(parts) != 4 {
		t.Fatalf("Table II sweep expanded to %d parts (config %q), want 4", len(parts), norm.Config)
	}
	for i, want := range []string{"config1", "config2", "config3", "config4"} {
		if parts[i].Config != want {
			t.Errorf("part %d = %q, want %q", i, parts[i].Config, want)
		}
		// Every part differs from its siblings only in Config, so its
		// fingerprint is a distinct routing key of the same job family.
		if parts[i].Model != norm.Model || parts[i].Seq != norm.Seq {
			t.Errorf("part %d lost normalized fields: %+v", i, parts[i])
		}
	}
	if _, parts, err := ExpandSweep(Request{Config: "config2", Seq: 2048}); err != nil || len(parts) != 1 || parts[0].Config != "config2" {
		t.Errorf("pinned-config sweep = %v parts, err %v", parts, err)
	}
	if _, _, err := ExpandSweep(Request{Config: "config9"}); err == nil {
		t.Error("unknown config accepted by sweep expansion")
	}
}

// TestSweepByteIdenticalToSingleJob is the scatter-gather acceptance check
// on one daemon: the merged record set of a scattered sweep equals the same
// request run as a single sweep job, byte for byte.
func TestSweepByteIdenticalToSingleJob(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 0, JobWorkers: 2, Backlog: 16}, nil)
	defer s.Close()
	req := Request{Model: "Llama2-30B", Seq: 2048}

	sw, err := s.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Jobs) != 4 {
		t.Fatalf("sweep scattered into %d jobs, want 4", len(sw.Jobs))
	}
	for _, ref := range sw.Jobs {
		if ref.JobID == "" || ref.Fingerprint == "" {
			t.Errorf("sweep part %s missing job ref: %+v", ref.Config, ref)
		}
	}

	j, _, err := s.Submit(req) // the same sweep as one unscattered job
	if err != nil {
		t.Fatal(err)
	}
	j, err = s.Wait(j.ID)
	if err != nil || j.State != StateDone {
		t.Fatalf("single sweep job: %v / %s (%s)", err, j.State, j.Error)
	}

	if sw.Result.Canonical != j.Result.Canonical {
		t.Errorf("scattered sweep record differs from single-job sweep (%d vs %d bytes)",
			len(sw.Result.Canonical), len(j.Result.Canonical))
	}
	if sw.Result.BestArch != j.Result.BestArch || sw.Result.TP != j.Result.TP ||
		sw.Result.PP != j.Result.PP || sw.Result.Throughput != j.Result.Throughput ||
		sw.Result.Explored != j.Result.Explored || sw.Result.Pruned != j.Result.Pruned {
		t.Errorf("merged summary %+v disagrees with single-job summary %+v", sw.Result, j.Result)
	}
	if len(sw.Result.PerArch) != len(j.Result.PerArch) {
		t.Fatalf("merged PerArch has %d entries, single job %d", len(sw.Result.PerArch), len(j.Result.PerArch))
	}
	for i := range sw.Result.PerArch {
		if sw.Result.PerArch[i] != j.Result.PerArch[i] {
			t.Errorf("PerArch[%d]: merged %+v != single %+v", i, sw.Result.PerArch[i], j.Result.PerArch[i])
		}
	}
	if st := s.Stats(); st.SweepsRun != 1 {
		t.Errorf("SweepsRun = %d, want 1", st.SweepsRun)
	}
}

// TestSweepPartFailureFailsSweep checks a sweep over an infeasible workload
// reports the failing part instead of a partial merge.
func TestSweepPartFailureFailsSweep(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1}, nil)
	defer s.Close()
	// An ultra-large model cannot fit a single wafer: every part fails, and
	// the sweep must surface the failure rather than merge nothing.
	if _, err := s.Sweep(Request{Model: "Llama3-405B", Seq: 2048}); err == nil {
		t.Error("sweep with infeasible parts reported success")
	}
}

// TestStatsQueueGauges pins the queue occupancy gauges: jobs executing count
// as in-flight, jobs waiting count as queue depth, and the backlog capacity
// is reported alongside.
func TestStatsQueueGauges(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	defer s.Close()

	release := make(chan struct{})
	blocked := make(chan struct{})
	if !submitInteractive(s, func() { close(blocked); <-release }) {
		t.Fatal("could not occupy the job worker")
	}
	<-blocked

	for seed := int64(1); seed <= 2; seed++ {
		req := testRequest()
		req.Seed = seed
		if _, _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.JobsInFlight != 1 {
		t.Errorf("JobsInFlight = %d with the worker busy, want 1", st.JobsInFlight)
	}
	if st.QueueDepth != 2 {
		t.Errorf("QueueDepth = %d with two queued jobs, want 2", st.QueueDepth)
	}
	if st.Backlog != 8 {
		t.Errorf("Backlog = %d, want the configured 8", st.Backlog)
	}

	close(release)
	for _, sum := range s.Jobs() {
		if _, err := s.Wait(sum.ID); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.JobsInFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("drained queue gauges = %d in flight / %d queued, want 0 / 0",
			st.JobsInFlight, st.QueueDepth)
	}
}
