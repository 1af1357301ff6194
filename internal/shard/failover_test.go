package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/service"
)

// crashGate simulates a shard crash mid-sweep: once armed on a shard index,
// that shard serves exactly one more successful job submission and then
// aborts every connection — the first poll for the accepted job, and
// everything after it, fails at the transport level exactly like a killed
// process.
type crashGate struct {
	victim  atomic.Int32
	tripped atomic.Bool
}

func (g *crashGate) wrap(idx int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.victim.Load() == int32(idx) {
			if g.tripped.Load() {
				panic(http.ErrAbortHandler)
			}
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				h.ServeHTTP(w, r)
				g.tripped.Store(true)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// TestRouterSweepFailoverMidSweep is the mid-sweep failover acceptance
// check: a shard that accepts a sweep leg and then dies before the result
// can be collected costs the sweep nothing but a re-dispatch — the gather
// completes with the same byte-identical record set as a single daemon,
// with the lost legs re-run on surviving replicas.
func TestRouterSweepFailoverMidSweep(t *testing.T) {
	gate := &crashGate{}
	gate.victim.Store(-1)

	var shards []*service.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		s := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, nil)
		ts := httptest.NewServer(gate.wrap(i, s.Handler()))
		t.Cleanup(func() { ts.Close(); s.Close() })
		shards = append(shards, s)
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	m := NewMap(addrs, Options{ProbeTimeout: 2 * time.Second})
	m.Probe(context.Background())
	t.Cleanup(m.Close)
	router := NewRouter(m)

	req := service.Request{Model: "Llama2-30B", Seq: 2048}
	_, parts, err := service.ExpandSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	// The victim is whichever shard owns the sweep's first part, so at least
	// one leg is guaranteed to be accepted there and then lost.
	victimOwned := map[string]bool{}
	victim := -1
	for i, part := range parts {
		norm, err := part.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		owner := search.ShardOwner(norm.Fingerprint(), addrs)
		if i == 0 {
			victim = owner
		}
		if owner == victim {
			victimOwned[part.Config] = true
		}
	}
	gate.victim.Store(int32(victim))

	sw, err := router.sweeps.Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("sweep through a mid-sweep crash: %v", err)
	}
	if len(sw.Jobs) != len(parts) {
		t.Fatalf("sweep gathered %d legs, want %d", len(sw.Jobs), len(parts))
	}
	for _, ref := range sw.Jobs {
		if victimOwned[ref.Config] && strings.HasPrefix(ref.JobID, addrs[victim]+"/") {
			t.Errorf("leg %s still reports the crashed shard's job %s", ref.Config, ref.JobID)
		}
	}

	// Byte-identity through the crash: same record set as one daemon.
	single, err := shards[(victim+1)%3].Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Result.Canonical != single.Result.Canonical {
		t.Errorf("failover sweep differs from single-daemon sweep (%d vs %d bytes)",
			len(sw.Result.Canonical), len(single.Result.Canonical))
	}

	st := router.Stats(context.Background())
	if st.Router.LegRetries == 0 {
		t.Error("mid-sweep crash recorded no leg re-dispatches")
	}
	if st.HealthyShards != 2 {
		t.Errorf("healthy shards after crash = %d, want 2", st.HealthyShards)
	}
}

// TestRouterDrainOverHTTP drives the shard lifecycle end-to-end through
// DELETE /v1/shards: the victim flips to draining, its snapshot slice is
// handed to the two inheriting survivors, it leaves the map, and its
// fingerprints route to survivors afterwards.
func TestRouterDrainOverHTTP(t *testing.T) {
	f := newFleet(t, 3)
	ctx := context.Background()

	// Warm the fleet so the victim has a snapshot slice worth inheriting.
	var victimReq service.Request
	victim := -1
	for seed := int64(1); seed <= 8; seed++ {
		req := testReq(seed)
		j, err := f.client.Run(ctx, req)
		if err != nil || j.State != service.StateDone {
			t.Fatalf("warmup seed %d: %v / %s", seed, err, j.State)
		}
		if victim == -1 {
			victim = f.ownerIdx(t, req)
			victimReq = req
		}
	}
	victimAddr := f.addrs[victim]

	body, _ := json.Marshal(map[string]string{"addr": victimAddr})
	httpReq, err := http.NewRequest(http.MethodDelete, f.rts.URL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	var rep DrainReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/shards = HTTP %d (%v)", resp.StatusCode, err)
	}
	if !rep.Drained || rep.Error != "" {
		t.Fatalf("drain degraded: drained=%v error=%q", rep.Drained, rep.Error)
	}
	if rep.Addr != victimAddr {
		t.Errorf("drain report addr %s, want %s", rep.Addr, victimAddr)
	}
	if rep.SnapshotBytes == 0 {
		t.Error("drain handed off an empty snapshot")
	}
	if len(rep.Inheritors) != 2 {
		t.Fatalf("drain found %d inheritors, want 2", len(rep.Inheritors))
	}
	sum := 0
	for _, ir := range rep.Inheritors {
		if ir.Error != "" {
			t.Errorf("inheritor %s push failed: %s", ir.Name, ir.Error)
		}
		if ir.Addr == victimAddr {
			t.Errorf("victim %s listed as its own inheritor", ir.Addr)
		}
		sum += ir.Buckets
	}
	if sum != DefaultBuckets {
		t.Errorf("inherited buckets sum to %d, want the victim's full row %d", sum, DefaultBuckets)
	}
	if len(rep.Placement.Shards) != 2 || !rep.Placement.WithinBound {
		t.Errorf("post-drain placement: %d shards, within bound %v; want 2 shards within bound",
			len(rep.Placement.Shards), rep.Placement.WithinBound)
	}

	// The victim daemon itself is draining (refusing new work) and the fleet
	// no longer contains it.
	if !f.shards[victim].Draining() {
		t.Error("drained shard's daemon is not draining")
	}
	st := f.router.Stats(ctx)
	if st.TotalShards != 2 {
		t.Errorf("fleet size after drain = %d, want 2", st.TotalShards)
	}
	if st.Router.ShardsDrained != 1 || st.Router.ShardsRemoved != 1 {
		t.Errorf("drain counters = %d drained / %d removed, want 1 / 1",
			st.Router.ShardsDrained, st.Router.ShardsRemoved)
	}

	// The drained shard's fingerprints now route to survivors.
	j, err := f.client.Run(ctx, victimReq)
	if err != nil || j.State != service.StateDone {
		t.Fatalf("victim-owned job after drain: %v / %s", err, j.State)
	}
	if strings.HasPrefix(j.ID, victimAddr+"/") {
		t.Errorf("job %s routed to the drained shard", j.ID)
	}
}

// TestRouterRefusalDrainingFailsOver: a primary that answers a routed submit
// with the daemon's draining refusal (service.ErrDraining, HTTP 503) is
// excluded from routing and the submission lands on its replica — a
// draining shard's refusal is a routing fact, not the request's answer.
func TestRouterRefusalDrainingFailsOver(t *testing.T) {
	var draining [2]atomic.Bool
	var addrs []string
	for i := range draining {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case r.URL.Path == "/v1/healthz":
				w.Write([]byte(`{"status":"ok"}`))
			case draining[i].Load():
				service.WriteSubmitError(w, service.ErrDraining)
			default:
				service.WriteJSON(w, http.StatusAccepted, service.Job{ID: "job-1", State: service.StateQueued})
			}
		}))
		t.Cleanup(ts.Close)
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	m := NewMap(addrs, Options{})
	t.Cleanup(m.Close)
	r := NewRouter(m)

	req := testReq(1)
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	replicas, err := m.PickReplicas(norm.Fingerprint())
	if err != nil || len(replicas) != 2 {
		t.Fatalf("replica set = %v (%v), want 2 shards", names(replicas), err)
	}
	primary, replica := replicas[0], replicas[1]
	for i, addr := range addrs {
		draining[i].Store(addr == primary.Addr)
	}

	j, b, _, err := r.submitRouted(context.Background(), req, time.Time{})
	if err != nil {
		t.Fatalf("submit with a draining primary: %v", err)
	}
	if b != replica || j.ID != replica.Addr+"/job-1" {
		t.Errorf("job %s landed on %s, want the replica %s", j.ID, b.Name, replica.Name)
	}
	if primary.Healthy() {
		t.Error("draining primary still admitted to routing")
	}
	r.mu.Lock()
	failovers := r.stats.Failovers
	r.mu.Unlock()
	if failovers != 1 {
		t.Errorf("failovers = %d, want 1", failovers)
	}
}

// TestRouterRefusalShutdownRetriesLeg: a sweep leg whose job comes back
// failed by the daemon's shutdown (service.ErrShutdown: the work never ran)
// is reported retryable by tryLeg and re-dispatched by runLeg; a job that
// failed for any other reason is the leg's answer.
func TestRouterRefusalShutdownRetriesLeg(t *testing.T) {
	polls := map[string]service.Job{
		"job-1": {ID: "job-1", State: service.StateFailed, Error: service.ErrShutdown.Error()},
		"job-2": {ID: "job-2", State: service.StateFailed, Error: service.ErrShutdown.Error()},
		"job-3": {ID: "job-3", State: service.StateDone, Result: &service.Result{Canonical: "arch=config3 err=<nil>\n"}},
		"job-4": {ID: "job-4", State: service.StateFailed, Error: "no feasible strategy"},
	}
	var submits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/healthz":
			w.Write([]byte(`{"status":"ok"}`))
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			id := fmt.Sprintf("job-%d", submits.Add(1))
			service.WriteJSON(w, http.StatusAccepted, service.Job{ID: id, State: service.StateQueued})
		default:
			service.WriteJSON(w, http.StatusOK, polls[strings.TrimPrefix(r.URL.Path, "/v1/jobs/")])
		}
	}))
	defer ts.Close()
	m := NewMap([]string{strings.TrimPrefix(ts.URL, "http://")}, Options{})
	defer m.Close()
	r := NewRouter(m)
	ctx := context.Background()

	// job-1: the shutdown failure is worth re-dispatching.
	if _, _, retry, err := r.tryLeg(ctx, testReq(1), time.Time{}); err == nil || !retry {
		t.Fatalf("leg failed by shutdown: retryable=%v err=%v, want a retryable failure", retry, err)
	}
	// job-2 fails the same way and runLeg re-dispatches it as job-3.
	res, ref, err := r.runLeg(ctx, testReq(1), time.Time{})
	if err != nil || res == nil {
		t.Fatalf("leg through a shard shutdown: %v", err)
	}
	if !strings.HasSuffix(ref.JobID, "/job-3") {
		t.Errorf("leg answered by %s, want the re-dispatched job-3", ref.JobID)
	}
	r.mu.Lock()
	retries := r.stats.LegRetries
	r.mu.Unlock()
	if retries != 1 {
		t.Errorf("leg retries = %d, want 1", retries)
	}
	// job-4: any other failure is deterministic — not retried.
	if _, _, retry, err := r.tryLeg(ctx, testReq(1), time.Time{}); err == nil || retry {
		t.Errorf("leg failed by the search: retryable=%v err=%v, want a final failure", retry, err)
	}
}
