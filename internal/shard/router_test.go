package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/service/client"
)

// fleet is an in-process shard fleet: n daemons behind real HTTP listeners,
// a probed shard map, a router, and a client bound to the router.
type fleet struct {
	shards  []*service.Server
	servers []*httptest.Server
	addrs   []string
	m       *Map
	router  *Router
	rts     *httptest.Server
	client  *client.Client
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, nil)
		ts := httptest.NewServer(s.Handler())
		f.shards = append(f.shards, s)
		f.servers = append(f.servers, ts)
		f.addrs = append(f.addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	f.m = NewMap(f.addrs, Options{ProbeTimeout: 2 * time.Second})
	f.m.Probe(context.Background())
	f.router = NewRouter(f.m)
	f.rts = httptest.NewServer(f.router.Handler())
	f.client = client.New(f.rts.URL)
	f.client.PollInterval = 2 * time.Millisecond
	t.Cleanup(func() {
		f.rts.Close()
		f.m.Close()
		for i := range f.shards {
			f.servers[i].Close()
			f.shards[i].Close()
		}
	})
	return f
}

// ownerIdx computes the rendezvous owner the router must agree with.
func (f *fleet) ownerIdx(t *testing.T, req service.Request) int {
	t.Helper()
	norm, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return search.ShardOwner(norm.Fingerprint(), f.addrs)
}

// ownerAddr is the owning shard's address — the namespace of its job IDs.
func (f *fleet) ownerAddr(t *testing.T, req service.Request) string {
	return f.addrs[f.ownerIdx(t, req)]
}

func testReq(seed int64) service.Request {
	return service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: seed}
}

// TestRouterJobByteIdenticalToInProcess is the tier's acceptance check: a
// job routed through the front-end carries the same canonical exploration
// record as the search run in-process, and lands on the shard rendezvous
// hashing owes it.
func TestRouterJobByteIdenticalToInProcess(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	if err := f.client.Health(ctx); err != nil {
		t.Fatalf("router health: %v", err)
	}
	j, err := f.client.Run(ctx, testReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != service.StateDone || j.Result == nil {
		t.Fatalf("routed job finished %s (%s)", j.State, j.Error)
	}
	wantShard := f.ownerAddr(t, testReq(7))
	if !strings.HasPrefix(j.ID, wantShard+"/") {
		t.Errorf("job %s not namespaced to rendezvous owner %s", j.ID, wantShard)
	}

	direct, err := sched.Search(hw.Config3(), model.Llama2_30B(),
		model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048},
		f.shards[0].Predictor(), sched.Options{Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := "arch=config3 err=<nil>\n" + direct.Canonical()
	if j.Result.Canonical != want {
		t.Errorf("routed record differs from in-process search (%d vs %d bytes)",
			len(j.Result.Canonical), len(want))
	}

	// The namespaced ID round-trips through the router's job fetch.
	fetched, err := f.client.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fetched.ID != j.ID || fetched.Result == nil || fetched.Result.Canonical != want {
		t.Error("router job fetch lost the record or the namespaced ID")
	}
}

// TestRouterStableHashing pins stable routing end-to-end: every submission
// of one fingerprint lands on its rendezvous owner (so shard caches and
// dedup keep working), and distinct fingerprints reach both shards. Owners
// are ranked over the httptest servers' addresses, whose ports change every
// run, so the test picks its 8 seeds per run: walking up from seed 1, it
// takes the first 4 that each shard owns. The hash's spread over fixed
// addresses is pinned by search.TestShardOwnerStable.
func TestRouterStableHashing(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	var seeds []int64
	owned := make([]int, 2)
	for seed := int64(1); len(seeds) < 8; seed++ {
		if seed > 256 {
			t.Fatalf("seeds 1–256 gave the shards %v fingerprints; want 4 each", owned)
		}
		if i := f.ownerIdx(t, testReq(seed)); owned[i] < 4 {
			owned[i]++
			seeds = append(seeds, seed)
		}
	}

	shardsHit := map[string]bool{}
	for _, seed := range seeds {
		req := testReq(seed)
		want := f.ownerAddr(t, req)
		for rep := 0; rep < 3; rep++ {
			j, err := f.client.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			shardAddr, _, _ := strings.Cut(j.ID, "/")
			if shardAddr != want {
				t.Fatalf("seed %d rep %d routed to %s, rendezvous owner is %s", seed, rep, shardAddr, want)
			}
		}
		shardsHit[want] = true
		// Identical resubmissions coalesced on the owning shard: one
		// execution absorbed the two repeats (or finished first and the
		// repeats re-ran warm — either way, same shard, same fingerprint).
	}
	if len(shardsHit) != 2 {
		t.Errorf("8 distinct fingerprints all routed to %v; want both shards used", shardsHit)
	}
	// Every submission was forwarded; dedup fired for same-fingerprint
	// repeats that were still in flight.
	st := f.router.Stats(ctx)
	if st.Router.JobsRouted != 24 {
		t.Errorf("router forwarded %d jobs, want 24", st.Router.JobsRouted)
	}
	if st.JobsSubmitted+st.JobsCoalesced != 24 {
		t.Errorf("fleet saw %d submissions + %d coalesced, want 24 total",
			st.JobsSubmitted, st.JobsCoalesced)
	}
}

// TestRouterSweepByteIdenticalToSingleNode is the scatter-gather acceptance
// check: a sweep scattered per-architecture across two shards merges into
// the record set of the same sweep on one daemon — and of the in-process
// core search — byte for byte, with every part on its rendezvous owner.
func TestRouterSweepByteIdenticalToSingleNode(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	req := service.Request{Model: "Llama2-30B", Seq: 2048}

	sw, err := f.client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Jobs) != 4 {
		t.Fatalf("sweep scattered into %d parts, want 4", len(sw.Jobs))
	}
	for _, ref := range sw.Jobs {
		part := req
		part.Config = ref.Config
		want := f.ownerAddr(t, part)
		if !strings.HasPrefix(ref.JobID, want+"/") {
			t.Errorf("part %s job %s not on rendezvous owner %s", ref.Config, ref.JobID, want)
		}
		if wantName := fmt.Sprintf("s%d", f.ownerIdx(t, part)); ref.Shard != wantName {
			t.Errorf("part %s labeled shard %s, want %s", ref.Config, ref.Shard, wantName)
		}
	}

	// The same sweep as one unscattered job on shard 0.
	single, err := f.shards[0].Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Result.Canonical != single.Result.Canonical {
		t.Errorf("scatter-gathered sweep differs from single-daemon sweep (%d vs %d bytes)",
			len(sw.Result.Canonical), len(single.Result.Canonical))
	}
	if st := f.router.Stats(ctx); st.Router.SweepsRouted != 1 {
		t.Errorf("SweepsRouted = %d, want 1", st.Router.SweepsRouted)
	}
}

// TestRouterFailover checks a dead shard is excluded on first contact and
// its fingerprints fail over to the survivor.
func TestRouterFailover(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	// Find a request owned by shard 1, then kill shard 1's listener.
	var req service.Request
	for seed := int64(1); ; seed++ {
		req = testReq(seed)
		if f.ownerIdx(t, req) == 1 {
			break
		}
	}
	f.servers[1].Close()

	j, err := f.client.Run(ctx, req)
	if err != nil {
		t.Fatalf("routed job with its owner dead: %v", err)
	}
	if j.State != service.StateDone {
		t.Fatalf("failover job finished %s (%s)", j.State, j.Error)
	}
	if !strings.HasPrefix(j.ID, f.addrs[0]+"/") {
		t.Errorf("failover job %s did not land on the survivor", j.ID)
	}
	st := f.router.Stats(ctx)
	if st.Router.RouteErrors == 0 {
		t.Error("failover recorded no route errors")
	}
	if st.HealthyShards != 1 {
		t.Errorf("healthy shards after failover = %d, want 1", st.HealthyShards)
	}
	// The router stays healthy on the surviving shard.
	if err := f.client.Health(ctx); err != nil {
		t.Errorf("router health with one survivor: %v", err)
	}
}

// TestRouterStatsAggregation checks the fleet aggregate a plain service
// client reads off the router, the per-shard statuses with queue gauges,
// and the mid-run join endpoint.
func TestRouterStatsAggregation(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := f.client.Run(ctx, testReq(seed)); err != nil {
			t.Fatal(err)
		}
	}

	// The unmodified typed client decodes the flattened fleet aggregate.
	agg, err := f.client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.JobsSubmitted != 4 || agg.JobsDone != 4 {
		t.Errorf("aggregate = %d submitted / %d done, want 4 / 4", agg.JobsSubmitted, agg.JobsDone)
	}
	if agg.JobWorkers != 4 {
		t.Errorf("aggregate job workers = %d, want 4 (2 shards x 2)", agg.JobWorkers)
	}

	full := f.router.Stats(ctx)
	if full.TotalShards != 2 || full.HealthyShards != 2 || len(full.Shards) != 2 {
		t.Fatalf("router stats shards = %d/%d (%d listed), want 2/2 (2)",
			full.HealthyShards, full.TotalShards, len(full.Shards))
	}
	var perShardDone uint64
	for _, st := range full.Shards {
		if st.Stats == nil {
			t.Fatalf("shard %s has no stats in the aggregate", st.Name)
		}
		if st.Stats.Backlog != 64 {
			t.Errorf("shard %s backlog gauge = %d, want 64", st.Name, st.Stats.Backlog)
		}
		perShardDone += st.Stats.JobsDone
	}
	if perShardDone != 4 {
		t.Errorf("per-shard done sums to %d, want 4", perShardDone)
	}

	// A join to an unreachable address is rejected at the probe, leaving
	// the fleet unchanged — never admitted as a healthy routing target.
	badBody, _ := json.Marshal(map[string]string{"addr": "127.0.0.1:1"})
	badResp, err := http.Post(f.rts.URL+"/v1/shards", "application/json", bytes.NewReader(badBody))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadGateway {
		t.Errorf("unreachable join returned HTTP %d, want 502", badResp.StatusCode)
	}
	if got := f.router.Stats(ctx).TotalShards; got != 2 {
		t.Errorf("fleet size after rejected join = %d, want 2", got)
	}

	// Mid-run join over HTTP: the fleet grows and the joiner gets traffic.
	s3 := service.NewServer(service.Options{EvalWorkers: 1}, nil)
	ts3 := httptest.NewServer(s3.Handler())
	t.Cleanup(func() { ts3.Close(); s3.Close() })
	body, _ := json.Marshal(map[string]string{"addr": strings.TrimPrefix(ts3.URL, "http://")})
	resp, err := http.Post(f.rts.URL+"/v1/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join returned HTTP %d, want 201", resp.StatusCode)
	}
	if got := f.router.Stats(ctx).TotalShards; got != 3 {
		t.Fatalf("fleet size after join = %d, want 3", got)
	}
	addrs3 := append(append([]string{}, f.addrs...), strings.TrimPrefix(ts3.URL, "http://"))
	for seed := int64(100); ; seed++ {
		req := testReq(seed)
		norm, _ := req.Normalize()
		if search.ShardOwner(norm.Fingerprint(), addrs3) == 2 {
			j, err := f.client.Run(ctx, req)
			if err != nil || j.State != service.StateDone {
				t.Fatalf("job on joined shard: %v / %s", err, j.State)
			}
			if !strings.HasPrefix(j.ID, addrs3[2]+"/") {
				t.Errorf("job %s not routed to the joined shard %s", j.ID, addrs3[2])
			}
			break
		}
	}
}

// TestRouterListsJobsAcrossShards: GET /v1/jobs on the router fans out over
// the healthy shards and lists every shard's jobs once, namespaced
// "<shard-addr>/<id>" so each listed ID resolves through the router's job
// fetch; a shard whose listener is gone is skipped and marked failed.
func TestRouterListsJobsAcrossShards(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	want := map[string]bool{}
	var perShard [2]int
	for seed := int64(1); perShard[0] == 0 || perShard[1] == 0; seed++ {
		req := testReq(seed)
		j, err := f.client.Run(ctx, req)
		if err != nil || j.State != service.StateDone {
			t.Fatalf("seed %d: %v / %s", seed, err, j.State)
		}
		want[j.ID] = true
		perShard[f.ownerIdx(t, req)]++
	}

	sums, err := f.client.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, s := range sums {
		listed[s.ID]++
	}
	if len(sums) != len(want) {
		t.Errorf("router listed %d jobs, want %d", len(sums), len(want))
	}
	for id := range want {
		if listed[id] != 1 {
			t.Errorf("job %s listed %d times, want once", id, listed[id])
		}
	}
	for _, s := range sums {
		j, err := f.client.Job(ctx, s.ID)
		if err != nil || j.ID != s.ID || j.State != service.StateDone {
			t.Errorf("listed job %s does not resolve through the router: %v (got %q, %s)", s.ID, err, j.ID, j.State)
		}
	}

	// A dead shard is skipped, not fatal to the listing, and excluded.
	f.servers[1].Close()
	sums, err = f.client.Jobs(ctx)
	if err != nil {
		t.Fatalf("listing with a dead shard: %v", err)
	}
	if len(sums) != perShard[0] {
		t.Errorf("listing with s1 dead has %d jobs, want s0's %d", len(sums), perShard[0])
	}
	for _, s := range sums {
		if !strings.HasPrefix(s.ID, f.addrs[0]+"/") {
			t.Errorf("job %s listed from the dead shard", s.ID)
		}
	}
	if st := f.m.Statuses()[1]; st.Healthy || st.LastError == "" {
		t.Errorf("dead shard status after listing = %+v, want marked failed", st)
	}
}
