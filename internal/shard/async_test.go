package shard

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/opgraph"
	"repro/internal/predictor"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/service/client"
)

// TestRouterAsyncSweep checks the routed async flow end to end: 202 handle,
// incremental leg completion through the polling client, and a merged
// record byte-identical to the single-daemon sweep.
func TestRouterAsyncSweep(t *testing.T) {
	f := newFleet(t, 2)
	ctx := context.Background()

	st, err := f.client.StartSweep(ctx, service.Request{Model: "Llama2-30B", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("handle = %+v, want 4 legs and an ID", st)
	}
	var partial []string
	final, err := f.client.WaitSweep(ctx, st.ID, func(leg service.SweepLeg) {
		partial = append(partial, leg.Config)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone || final.Completed != 4 || final.Result == nil {
		t.Fatalf("final handle = %s, %d/4 legs (%s)", final.State, final.Completed, final.Error)
	}
	if len(partial) != 4 {
		t.Errorf("onLeg fired for %d legs, want 4 (%v)", len(partial), partial)
	}
	for _, leg := range final.Legs {
		if leg.Shard == "" || !strings.Contains(leg.JobID, "/") {
			t.Errorf("leg %s missing shard attribution: %+v", leg.Config, leg)
		}
	}

	single, err := f.shards[0].Sweep(service.Request{Model: "Llama2-30B", Seq: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.Canonical != single.Result.Canonical {
		t.Errorf("async routed sweep differs from single-daemon sweep (%d vs %d bytes)",
			len(final.Result.Canonical), len(single.Result.Canonical))
	}
	rst := f.router.Stats(ctx)
	if rst.Router.SweepsRouted != 1 {
		t.Errorf("SweepsRouted = %d, want 1", rst.Router.SweepsRouted)
	}
	if rst.SweepsDone < 1 || rst.SweepsRetained < 1 {
		t.Errorf("sweep gauges = %d done / %d retained, want >= 1 each",
			rst.SweepsDone, rst.SweepsRetained)
	}
}

// TestRouterSweepHandleGone pins 410-vs-404 on the router's handle store.
func TestRouterSweepHandleGone(t *testing.T) {
	f := newFleet(t, 1)
	f.router.SweepHistory = 1
	f.router.SweepTTL = -1
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		req := service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: int64(i + 1)}
		if _, err := f.client.Sweep(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.router.sweeps.Lookup("swp-1"); !errors.Is(err, jobs.ErrGone) {
		t.Errorf("evicted handle: err = %v, want ErrGone", err)
	}
	var se *client.StatusError
	if _, err := f.client.SweepStatus(ctx, "swp-1"); !errors.As(err, &se) || se.Code != 410 {
		t.Errorf("evicted handle over HTTP: %v, want 410", err)
	}
	if _, err := f.client.SweepStatus(ctx, "swp-99"); !errors.As(err, &se) || se.Code != 404 {
		t.Errorf("never-issued handle over HTTP: %v, want 404", err)
	}
}

// TestRouterSweepLegPrefetchClamp pins the leg-priority floor at the routing
// tier, exactly as on a daemon: a sweep labelled prefetch runs its legs as
// sweep-leg demand jobs on the shard, never in the speculative lane, where a
// busy shard would refuse them and demand arrival would cancel them.
func TestRouterSweepLegPrefetchClamp(t *testing.T) {
	f := newFleet(t, 1)
	ctx := context.Background()
	before := f.shards[0].Stats()
	req := service.Request{Model: "Llama2-30B", Seq: 2048, Seed: 31, Priority: "prefetch"}
	if _, err := f.client.Sweep(ctx, req); err != nil {
		t.Fatal(err)
	}
	after := f.shards[0].Stats()
	if sub, spec := after.JobsSubmitted-before.JobsSubmitted, after.PrefetchIssued-before.PrefetchIssued; sub != 4 || spec != 0 {
		t.Errorf("prefetch-labelled sweep: shard jobs_submitted +%d, prefetch_issued +%d; want +4 and +0", sub, spec)
	}
}

// gatedPredictor holds every prediction while the test holds mu: a
// deterministic way to keep a daemon's jobs running.
type gatedPredictor struct {
	predictor.Predictor
	mu *sync.RWMutex
}

func (g gatedPredictor) Predict(op opgraph.Op, die predictor.DieContext) predictor.Estimate {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.Predictor.Predict(op, die)
}

// TestSweepGaugesAgreeAcrossTiers pins one meaning of the sweep-store gauges
// on both tiers: with one finished and one running handle, Server.Stats and
// Router.Stats report the same counts, and sweeps_retained counts every
// handle the store holds, running or terminal.
func TestSweepGaugesAgreeAcrossTiers(t *testing.T) {
	ctx := context.Background()
	var gate sync.RWMutex
	pred := gatedPredictor{Predictor: predictor.NewLookupTable(predictor.TileLevel{}), mu: &gate}
	serve := func() (*service.Server, *httptest.Server) {
		s := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 1}, pred)
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts
	}
	daemon, dts := serve()
	_, sts := serve()
	m := NewMap([]string{strings.TrimPrefix(sts.URL, "http://")}, Options{})
	m.Probe(ctx)
	t.Cleanup(m.Close)
	router := NewRouter(m)
	rts := httptest.NewServer(router.Handler())
	t.Cleanup(rts.Close)
	tiers := []*client.Client{client.New(dts.URL), client.New(rts.URL)}

	for _, c := range tiers {
		c.PollInterval = 2 * time.Millisecond
		if _, err := c.Sweep(ctx, service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048}); err != nil {
			t.Fatal(err)
		}
	}
	gate.Lock()
	release := sync.OnceFunc(gate.Unlock)
	t.Cleanup(release) // runs before the servers close
	var running []string
	for _, c := range tiers {
		st, err := c.StartSweep(ctx, service.Request{Model: "Llama2-30B", Config: "config1", Seq: 2048})
		if err != nil {
			t.Fatal(err)
		}
		running = append(running, st.ID)
	}

	type gauges struct {
		Running, Done, Failed, Retained int
		Evicted                         uint64
	}
	read := func(st service.Stats) gauges {
		return gauges{st.SweepsRunning, st.SweepsDone, st.SweepsFailed, st.SweepsRetained, st.SweepsEvicted}
	}
	want := gauges{Running: 1, Done: 1, Retained: 2}
	if got := read(daemon.Stats()); got != want {
		t.Errorf("daemon sweep gauges = %+v, want %+v", got, want)
	}
	if got := read(router.Stats(ctx).Stats); got != want {
		t.Errorf("router sweep gauges = %+v, want %+v", got, want)
	}
	release()
	for i, c := range tiers {
		if _, err := c.WaitSweep(ctx, running[i], nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterResultCache checks the fleet-wide completed-result cache: a
// repeat of an answered fingerprint is served at the router — the shards
// see no second submission — and the synthetic cache job is pollable.
func TestRouterResultCache(t *testing.T) {
	f := newFleet(t, 2)
	f.router.Cache = NewResultCache(64)
	ctx := context.Background()

	first, err := f.client.Run(ctx, testReq(7))
	if err != nil || first.State != service.StateDone {
		t.Fatalf("first run: %v / %s", err, first.State)
	}
	// The result reaches the cache when the final poll proxies the done job.
	before := f.router.Stats(ctx)
	if before.ResultCache.Size != 1 {
		t.Fatalf("cache size after first run = %d, want 1", before.ResultCache.Size)
	}

	second, err := f.client.Run(ctx, testReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(second.ID, "cache/") || second.State != service.StateDone {
		t.Fatalf("repeat run = %+v, want a terminal cache/ job", second)
	}
	if second.Result.Canonical != first.Result.Canonical {
		t.Error("cached record differs from the original")
	}
	after := f.router.Stats(ctx)
	if after.ResultCache.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", after.ResultCache.Hits)
	}
	if after.Router.JobsRouted != before.Router.JobsRouted {
		t.Errorf("repeat crossed the fleet: jobs_routed %d -> %d",
			before.Router.JobsRouted, after.Router.JobsRouted)
	}
	if after.JobsSubmitted+after.JobsCoalesced != before.JobsSubmitted+before.JobsCoalesced {
		t.Error("repeat reached a shard's submission counters")
	}

	// The synthetic job ID round-trips through GET /v1/jobs/{id}.
	polled, err := f.client.Job(ctx, second.ID)
	if err != nil || polled.Result == nil || polled.Result.Canonical != first.Result.Canonical {
		t.Errorf("polling the cache job: %v / %+v", err, polled)
	}
}

// TestRouterResultCacheSweep checks sweep legs both fill and consume the
// cache: after one sweep, a repeat sweep completes with every leg served
// from the cache and zero additional routed jobs.
func TestRouterResultCacheSweep(t *testing.T) {
	f := newFleet(t, 2)
	f.router.Cache = NewResultCache(64)
	ctx := context.Background()
	req := service.Request{Model: "Llama2-30B", Seq: 2048}

	first, err := f.client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	mid := f.router.Stats(ctx)
	if mid.ResultCache.Size != 4 {
		t.Fatalf("cache holds %d legs after sweep, want 4", mid.ResultCache.Size)
	}

	second, err := f.client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Result.Canonical != first.Result.Canonical {
		t.Error("cached sweep differs from the original")
	}
	for _, ref := range second.Jobs {
		if ref.Shard != "cache" {
			t.Errorf("repeat leg %s ran on %s, want the cache", ref.Config, ref.Shard)
		}
	}
	after := f.router.Stats(ctx)
	if after.Router.JobsRouted != mid.Router.JobsRouted {
		t.Errorf("repeat sweep crossed the fleet: jobs_routed %d -> %d",
			mid.Router.JobsRouted, after.Router.JobsRouted)
	}
}

// TestResultCacheInvalidation unit-tests the cache's validity checks:
// scheme pinning, predictor flush-and-adopt, collision verification, and
// nil-safety.
func TestResultCacheInvalidation(t *testing.T) {
	mk := func(fp string, pred uint64) *service.Result {
		return &service.Result{
			Canonical:     "rec:" + fp,
			SchemeVersion: search.FingerprintSchemeVersion,
			PredictorID:   pred,
		}
	}
	c := NewResultCache(8)
	c.Put("fp-a", mk("fp-a", 11))
	if res, ok := c.Get("fp-a"); !ok || res.Canonical != "rec:fp-a" {
		t.Fatal("round-trip miss")
	}

	// An unstamped or scheme-mismatched result never enters the cache.
	c.Put("fp-b", &service.Result{Canonical: "x"})
	stale := mk("fp-c", 11)
	stale.SchemeVersion = search.FingerprintSchemeVersion + 1
	c.Put("fp-c", stale)
	if _, ok := c.Get("fp-b"); ok {
		t.Error("unstamped result served")
	}
	if _, ok := c.Get("fp-c"); ok {
		t.Error("scheme-mismatched result served")
	}

	// A predictor change flushes everything and adopts the new identity.
	c.Put("fp-d", mk("fp-d", 22))
	if _, ok := c.Get("fp-a"); ok {
		t.Error("pre-flush entry survived a predictor change")
	}
	if res, ok := c.Get("fp-d"); !ok || res.Canonical != "rec:fp-d" {
		t.Error("post-flush entry not served")
	}
	if st := c.Stats(); st.Flushes != 1 || st.PredictorID != 22 {
		t.Errorf("stats after flush = %+v", st)
	}

	// A ShardKey collision must miss (stored fingerprint differs), and a
	// nil cache is inert.
	if _, _, ok := c.GetByKey(ResultCacheKey("fp-a")); !ok {
		// fp-a was flushed above; re-add under the current predictor.
		c.Put("fp-a", mk("fp-a", 22))
	}
	var nilCache *ResultCache
	nilCache.Put("fp", mk("fp", 1))
	if _, ok := nilCache.Get("fp"); ok {
		t.Error("nil cache served a hit")
	}
	if st := nilCache.Stats(); st != (ResultCacheStats{}) {
		t.Errorf("nil cache stats = %+v", st)
	}
	disabled := NewResultCache(0)
	disabled.Put("fp", mk("fp", 1))
	if _, ok := disabled.Get("fp"); ok {
		t.Error("disabled cache served a hit")
	}
}
