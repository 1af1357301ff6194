package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

func breakerTestOpts() BreakerOptions {
	return BreakerOptions{Window: 8, MinSamples: 4, ErrorRate: 0.5, LatencyP95: 50 * time.Millisecond, Cooldown: 25 * time.Millisecond}
}

func tripBreaker(b *Breaker, n int) {
	for i := 0; i < n; i++ {
		b.Observe(time.Millisecond, errors.New("boom"))
	}
}

// TestBreakerTripsOnErrorRate: enough failed round-trips in the window open
// the breaker; an open breaker admits nothing until its cooldown.
func TestBreakerTripsOnErrorRate(t *testing.T) {
	b := newBreaker(breakerTestOpts())
	b.Observe(time.Millisecond, nil)
	b.Observe(time.Millisecond, nil)
	tripBreaker(b, 2) // 2 fails / 4 samples = 0.5 at MinSamples
	st := b.Snapshot()
	if st.State != "open" || st.TimesOpened != 1 {
		t.Fatalf("after 50%% failures: %+v, want open once", st)
	}
	if b.Routable() || b.Allow() {
		t.Error("open breaker admitted a request inside its cooldown")
	}
	if st.LastError == "" {
		t.Error("open breaker lost its last error")
	}
}

// TestBreakerTripsOnTailLatency is the probe-blind-spot case: every call
// succeeds (healthz would stay green) but the p95 round-trip is pathological,
// and the breaker still opens.
func TestBreakerTripsOnTailLatency(t *testing.T) {
	b := newBreaker(breakerTestOpts())
	for i := 0; i < 4; i++ {
		b.Observe(100*time.Millisecond, nil) // all successes
	}
	st := b.Snapshot()
	if st.State != "open" {
		t.Fatalf("slow-but-alive breaker state = %s, want open (%+v)", st.State, st)
	}
	if st.WindowFailures != 0 {
		t.Errorf("latency trip recorded %d failures, want 0", st.WindowFailures)
	}
	if st.WindowP95MS < 99 {
		t.Errorf("window p95 = %.1fms, want ~100ms", st.WindowP95MS)
	}
}

// TestBreakerHalfOpenCycle drives the full state machine: open → cooldown →
// half-open single trial (concurrent requests stay blocked) → failed trial
// re-opens → second trial success closes with a fresh window.
func TestBreakerHalfOpenCycle(t *testing.T) {
	b := newBreaker(breakerTestOpts())
	tripBreaker(b, 4)
	if st := b.Snapshot(); st.State != "open" {
		t.Fatalf("state = %s, want open", st.State)
	}
	time.Sleep(30 * time.Millisecond) // past cooldown
	if !b.Routable() {
		t.Fatal("cooled-down breaker not routable")
	}
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the half-open trial")
	}
	if b.Allow() || b.Routable() {
		t.Error("second request admitted while the trial is in flight")
	}
	b.ObserveOutcome(errors.New("still broken"))
	if st := b.Snapshot(); st.State != "open" || st.TimesOpened != 2 {
		t.Fatalf("failed trial: %+v, want re-opened (2 trips)", st)
	}
	time.Sleep(30 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("second trial refused")
	}
	b.Observe(time.Millisecond, nil)
	st := b.Snapshot()
	if st.State != "closed" {
		t.Fatalf("successful trial left state %s, want closed", st.State)
	}
	if st.WindowSamples != 0 {
		t.Errorf("window not reset on close: %d samples", st.WindowSamples)
	}
}

// TestRouterSkipsOpenBreaker: a probe-healthy shard with an open breaker is
// skipped by routing — submissions land on the replica — and the breaker
// state is visible in the shard statuses.
func TestRouterSkipsOpenBreaker(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	var req service.Request
	for seed := int64(1); ; seed++ {
		req = testReq(seed)
		if f.ownerIdx(t, req) == 1 {
			break
		}
	}
	victim := f.m.Backends()[1]
	tripBreaker(victim.Breaker(), 8) // defaults: MinSamples 8, ErrorRate 0.5

	if !victim.Healthy() {
		t.Fatal("breaker trip must not touch probe health")
	}
	j, err := f.client.Run(ctx, req)
	if err != nil {
		t.Fatalf("routed around open breaker: %v", err)
	}
	if j.State != service.StateDone || !strings.HasPrefix(j.ID, f.addrs[0]+"/") {
		t.Errorf("job %s (%s) did not land on the breaker-closed replica", j.ID, j.State)
	}
	for _, st := range f.m.Statuses() {
		if st.Breaker == nil {
			t.Fatalf("shard %s status missing breaker state", st.Name)
		}
		if st.Addr == victim.Addr && st.Breaker.State != "open" {
			t.Errorf("victim breaker state = %s, want open", st.Breaker.State)
		}
	}
}

// TestBreakerHalfOpenTrialRacingDrain races half-open trial traffic against a
// drain of the same shard: submissions must keep completing on the survivor
// and the drain must finish removing the victim — no deadlock, no panic, no
// routing into the removed backend.
func TestBreakerHalfOpenTrialRacingDrain(t *testing.T) {
	s0 := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, nil)
	s1 := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, nil)
	ts0, ts1 := httptest.NewServer(s0.Handler()), httptest.NewServer(s1.Handler())
	defer func() { ts0.Close(); ts1.Close(); s0.Close(); s1.Close() }()
	addrs := []string{strings.TrimPrefix(ts0.URL, "http://"), strings.TrimPrefix(ts1.URL, "http://")}
	m := NewMap(addrs, Options{ProbeTimeout: 2 * time.Second,
		Breaker: BreakerOptions{Window: 4, MinSamples: 2, ErrorRate: 0.5, Cooldown: time.Millisecond}})
	defer m.Close()
	m.Probe(context.Background())
	r := NewRouter(m)
	ctx := context.Background()

	victim := m.Backends()[0]
	tripBreaker(victim.Breaker(), 2)
	time.Sleep(5 * time.Millisecond) // cooldown elapsed: next Allow is the trial

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := r.Drain(ctx, victim.Addr); err != nil {
			t.Errorf("drain racing trials: %v", err)
		}
	}()
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			j, _, _, err := r.submitRouted(ctx, testReq(seed), time.Time{})
			if err != nil {
				t.Errorf("submit during drain race: %v", err)
				return
			}
			b, _ := m.BackendByAddr(strings.SplitN(j.ID, "/", 2)[0])
			if b == nil {
				// The victim was removed after answering; the trial outcome
				// still folds into its (now detached) breaker safely.
				return
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if got := len(m.Backends()); got != 1 {
		t.Errorf("backends after drain = %d, want 1", got)
	}
	// Late observations against the removed backend's breaker must be safe.
	victim.Breaker().ObserveOutcome(errors.New("late"))
	victim.Breaker().Observe(time.Millisecond, nil)
}

// TestRunLegDeadlineSpent: a leg whose budget is already exhausted expires —
// errLegDeadline, never retried, never dispatched to a shard.
func TestRunLegDeadlineSpent(t *testing.T) {
	f := newFleet(t, 1)
	before := f.router.Stats(context.Background()).Router.JobsRouted
	_, _, err := f.router.runLeg(context.Background(), testReq(1), time.Now().Add(-time.Millisecond))
	if !errors.Is(err, errLegDeadline) {
		t.Fatalf("spent-budget leg error = %v, want errLegDeadline", err)
	}
	if after := f.router.Stats(context.Background()).Router.JobsRouted; after != before {
		t.Errorf("expired leg still crossed to a shard (%d routed)", after-before)
	}
}

// TestRouterDegradedSweepAllReplicasDead is the brownout acceptance check: a
// sweep scattered while every shard is unreachable still answers. Legs with a
// prior terminal result serve from the fleet result cache; the rest fold in
// as degraded marker rows, and the merged record carries every row that could
// be gathered instead of failing.
func TestRouterDegradedSweepAllReplicasDead(t *testing.T) {
	f := newFleet(t, 2)
	f.router.Cache = NewResultCache(64)
	ctx := context.Background()

	// Warm the result cache with one of the sweep's four architectures.
	warm := service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048}
	if j, err := f.client.Run(ctx, warm); err != nil || j.State != service.StateDone {
		t.Fatalf("warm job: %v (%+v)", err, j)
	}
	// Kill every shard without a probe pass: the map still believes the fleet
	// is healthy, so the sweep scatters and discovers the brownout in-band.
	f.servers[0].Close()
	f.servers[1].Close()

	st, err := f.client.StartSweep(ctx, service.Request{Model: "Llama2-30B", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	final, err := f.client.WaitSweep(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Completed != 4 || final.Result == nil {
		t.Fatalf("degraded sweep = %s %d/4 (%s), want done with a merged record",
			final.State, final.Completed, final.Error)
	}
	var degraded, cached int
	for _, leg := range final.Legs {
		switch {
		case leg.Config == "config3":
			if leg.Shard != "cache" || leg.Result == nil {
				t.Errorf("warm leg %+v, want served from cache", leg)
			}
		default:
			if !leg.Degraded || leg.State != service.StateFailed || leg.Error == "" || leg.Result != nil {
				t.Errorf("dead leg %+v, want absorbed degraded marker", leg)
			}
			degraded++
		}
		if leg.Shard == "cache" {
			cached++
		}
	}
	if degraded != 3 || cached != 1 {
		t.Fatalf("legs = %d degraded / %d cached, want 3 / 1", degraded, cached)
	}
	if n := strings.Count(final.Result.Canonical, "err=degraded:"); n != 3 {
		t.Errorf("merged record has %d degraded marker rows, want 3:\n%s", n, final.Result.Canonical)
	}
	if !strings.Contains(final.Result.Canonical, "arch=config3 err=<nil>") {
		t.Error("merged record lost the cache-served config3 row")
	}
	res, err := final.ToResult()
	if err != nil {
		t.Fatalf("degraded sweep ToResult: %v", err)
	}
	var flagged int
	for _, ref := range res.Jobs {
		if ref.Degraded {
			flagged++
		}
	}
	if flagged != 3 {
		t.Errorf("SweepResult flags %d degraded refs, want 3", flagged)
	}
	if got := f.router.Stats(ctx).Router.LegsDegraded; got != 3 {
		t.Errorf("LegsDegraded = %d, want 3", got)
	}
}

// TestRouterDegradedLegServedFromCache exercises the late-cache fallback
// deterministically: a leg that exhausts its replicas after the scatter is
// served from a result cached in the meantime, marked Degraded, while a cold
// leg folds in as a marker row.
func TestRouterDegradedLegServedFromCache(t *testing.T) {
	f := newFleet(t, 1)
	f.router.Cache = NewResultCache(64)
	ctx := context.Background()

	warm := service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048}
	if j, err := f.client.Run(ctx, warm); err != nil || j.State != service.StateDone {
		t.Fatalf("warm job: %v", err)
	}
	f.servers[0].Close()

	// Drive the shared sweep engine through a dispatcher that skips the
	// router's start-time cache check: every leg walks its dead replica set,
	// and only then may the warm config3 leg fall back to the cache.
	r := f.router
	eng := &service.SweepEngine{
		Dispatch: func(part service.Request, deadline time.Time, fold func(service.SweepLeg)) error {
			fold(r.runSweepLeg(part, deadline))
			return nil
		},
	}
	st, err := eng.Start(service.Request{Model: "Llama2-30B", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	st, err = eng.Wait(ctx, st.ID)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("sweep = %s (%v), want done", st.State, err)
	}
	leg := func(config string) service.SweepLeg {
		for _, l := range st.Legs {
			if l.Config == config {
				return l
			}
		}
		t.Fatalf("sweep has no %s leg", config)
		return service.SweepLeg{}
	}
	if l := leg("config3"); !l.Degraded || l.State != service.StateDone || l.Shard != "cache" || l.Result == nil {
		t.Errorf("cache-fallback leg %+v, want degraded done from cache", l)
	}
	if l := leg("config1"); !l.Degraded || l.State != service.StateFailed || l.Result != nil {
		t.Errorf("cold leg %+v, want degraded marker", l)
	}
	if !strings.Contains(st.Result.Canonical, "arch=config1 err=degraded:") {
		t.Errorf("merged record missing config1 marker row:\n%s", st.Result.Canonical)
	}
}

// TestRouterRelaysRetryAfter: a shard's shed (429 + Retry-After) passes
// through the router with the hint intact, and a deliberate 429 does NOT
// count against the shard's breaker — admission control is not a fault.
func TestRouterRelaysRetryAfter(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"shed: interactive queue over budget"}`))
	}))
	defer fake.Close()
	m := NewMap([]string{strings.TrimPrefix(fake.URL, "http://")}, Options{})
	defer m.Close()
	r := NewRouter(m)
	rts := httptest.NewServer(r.Handler())
	defer rts.Close()

	body, _ := json.Marshal(testReq(1))
	resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("routed shed status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("relayed Retry-After = %q, want \"7\"", got)
	}
	if st := m.Backends()[0].Breaker().Snapshot(); st.WindowFailures != 0 {
		t.Errorf("429 counted as breaker failure: %+v", st)
	}
}

// TestRouterForwardsRemainingDeadline: the router recomputes the relative
// deadline budget when forwarding, so the shard sees the time already spent.
func TestRouterForwardsRemainingDeadline(t *testing.T) {
	var gotDeadline int64
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		var req service.Request
		json.NewDecoder(r.Body).Decode(&req)
		gotDeadline = req.DeadlineMS
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"job-1","state":"queued"}`)
	}))
	defer fake.Close()
	m := NewMap([]string{strings.TrimPrefix(fake.URL, "http://")}, Options{})
	defer m.Close()
	r := NewRouter(m)

	req := testReq(1)
	req.DeadlineMS = 10_000
	// Simulate 600ms already burned before dispatch (failover walk, queueing).
	deadline := time.Now().Add(9400 * time.Millisecond)
	if _, _, _, err := r.submitRouted(context.Background(), req, deadline); err != nil {
		t.Fatal(err)
	}
	if gotDeadline <= 0 || gotDeadline > 9400 {
		t.Errorf("forwarded deadline_ms = %d, want in (0, 9400]", gotDeadline)
	}
}
