package shard

import (
	"bytes"
	"context"
	"encoding/json"
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
