package service

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/sched"
	"repro/internal/search"
)

// TestDrainRejectsNewWork pins the drain contract: after BeginDrain new
// submissions fail with ErrDraining (HTTP 503 through the handler), the
// health endpoint turns 503 so a routing tier excludes the shard, and work
// accepted before the drain still finishes and stays pollable.
func TestDrainRejectsNewWork(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1}, nil)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	j, _, err := s.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()

	req2 := testRequest()
	req2.Seed = 99
	if _, _, err := s.Submit(req2); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = HTTP %d, want 503", resp.StatusCode)
	}
	if !s.Stats().Draining {
		t.Error("stats do not report draining")
	}

	done, err := s.Wait(j.ID)
	if err != nil || done.State != StateDone {
		t.Fatalf("pre-drain job = %v / %s, want done", err, done.State)
	}

	// POST /v1/drain is the remote form and idempotent.
	resp, err = http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("POST /v1/drain = HTTP %d, want 200", resp.StatusCode)
	}
}

// TestCloseGracefulRunsBacklog distinguishes the two shutdown paths: Close
// drops the queued backlog (jobs marked failed), CloseGraceful executes it.
func TestCloseGracefulRunsBacklog(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 8}, nil)
	ids := make([]string, 0, 3)
	for seed := int64(1); seed <= 3; seed++ {
		req := testRequest()
		req.Seed = seed
		j, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if err := s.CloseGraceful(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, err := s.Job(id)
		if err != nil || j.State != StateDone {
			t.Errorf("job %s after graceful close: state %s (%s), want done", id, j.State, j.Error)
		}
	}
}

// TestSnapshotPushEndpoint drives PUT /v1/snapshot: a valid stream restores
// (200 + counts), a stale one is refused with 409, garbage with 400.
func TestSnapshotPushEndpoint(t *testing.T) {
	s := NewServer(Options{EvalWorkers: 1}, nil)
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()

	j, _, err := s.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if done, err := s.Wait(j.ID); err != nil || done.State != StateDone {
		t.Fatalf("warmup job: %v / %s", err, done.State)
	}
	var snap bytes.Buffer
	if _, err := s.WriteSnapshotTo(&snap); err != nil {
		t.Fatal(err)
	}

	put := func(body []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/snapshot", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put(snap.Bytes()); code != http.StatusOK {
		t.Errorf("valid snapshot push = HTTP %d, want 200", code)
	}
	stale := doctorStream(t, snapshotHeader{
		Magic: snapshotMagic, Format: snapshotFormat,
		Scheme: search.FingerprintSchemeVersion + 1,
	})
	if code := put(stale.Bytes()); code != http.StatusConflict {
		t.Errorf("stale snapshot push = HTTP %d, want 409", code)
	}
	if code := put([]byte("not a snapshot")); code != http.StatusBadRequest {
		t.Errorf("garbage snapshot push = HTTP %d, want 400", code)
	}
}

// TestLoadSnapshotTruncated pins the crash-safety contract of the atomic
// save: a snapshot truncated mid-body (the state a crash between write and
// rename could have published without the temp-file dance) fails the load
// with every cache entry untouched.
func TestLoadSnapshotTruncated(t *testing.T) {
	path := t.TempDir() + "/snap.gob"
	s := NewServer(Options{EvalWorkers: 1, SnapshotPath: path}, nil)
	defer s.Close()
	j, _, err := s.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if done, err := s.Wait(j.ID); err != nil || done.State != StateDone {
		t.Fatalf("warmup job: %v / %s", err, done.State)
	}
	if _, err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	candBefore := sched.CacheStats()
	evalBefore := search.DefaultCache().Stats()
	if _, err := s.LoadSnapshot(); err == nil {
		t.Fatal("loading a truncated snapshot succeeded")
	}
	if st := sched.CacheStats(); st.Size != candBefore.Size {
		t.Errorf("truncated load changed candidate cache size %d -> %d", candBefore.Size, st.Size)
	}
	if st := search.DefaultCache().Stats(); st.Size != evalBefore.Size {
		t.Errorf("truncated load changed eval cache size %d -> %d", evalBefore.Size, st.Size)
	}
}
