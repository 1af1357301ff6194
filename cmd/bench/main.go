// Command bench runs the repository's tier-2 performance benchmarks
// in-process (explicit timed loops with -benchmem semantics) and writes a
// machine-readable BENCH_<tag>.json so the repo carries a perf trajectory
// across PRs. The acceptance benchmark is search-sequential-nocache: one
// full strategy search with the evaluation and candidate memoization caches
// disabled, i.e. the cache-cold inner loop. Prior PRs' acceptance numbers
// are carried forward in the baselines list.
//
// The service benchmarks drive an in-process watosd (internal/service)
// through its HTTP API with concurrent identical and distinct jobs,
// reporting the dedup hit rate and sustained jobs/sec. The router
// benchmarks put the sharded tier (internal/shard) in front: the same
// bursts routed by fingerprint across 1 vs 2 watosd shards (scaling), an
// identical burst through the router (routed-dedup hit rate — stable
// hashing keeps shard-side singleflight firing), and scatter-gathered
// Table II sweeps. The kill-mid-burst benchmark tears one replicated
// shard's listener down in the middle of a distinct burst and reports the
// completion rate (1.0 = no job was lost for good) plus the mean failover
// latency of re-dispatching the lost jobs to the surviving replicas.
//
// The annealer-iteration benchmarks (anneal-swap, anneal-swap-pp32) measure
// the Scorer's price/commit cycle against the PR3-era full re-evaluation
// measured in the same run (tagged pr3-full-reeval in the baselines list),
// and a testing.AllocsPerRun guard fails the run outright if the priced
// cycle ever allocates. The end-to-end annealing searches
// (optimize-placement-*) record what Optimize costs.
//
// The saturation benchmarks drive a single-worker daemon at a sustained
// 2x+ offered load twice — once with overload protection on (per-class
// admission budgets, end-to-end deadlines) and once with everything
// admitted — and record goodput (completed within target / offered) plus
// the interactive p95; the run fails outright if protection does not win
// both.
//
// The prefetch-replay pair records a sweep trajectory on a throwaway
// daemon, pulls it back over GET /v1/trace, and replays it against fresh
// daemons with the speculative prefetch lane on vs off; the run fails
// outright unless prefetch wins the warm-hit rate strictly.
//
// Each timed loop is repeated -reps times and the best repetition is
// recorded: the CI-class container is single-CPU and run-to-run noise
// reaches ±15%, so min-of-N is the stable estimator of the code's cost
// (allocation counts are deterministic and taken from the first rep).
//
// Usage:
//
//	go run ./cmd/bench                # writes BENCH_pr10.json
//	go run ./cmd/bench -out perf.json # custom output path
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchutil"
	"repro/internal/collective"
	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/model"
	"repro/internal/placement"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/search/pool"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
	"repro/internal/sim"
)

// entry is one benchmark's summary.
type entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// taggedEntry is a prior PR's acceptance-benchmark measurement, carried
// forward so the trajectory travels with the repo.
type taggedEntry struct {
	Tag string `json:"tag"`
	entry
}

// serviceEntry is one service- or router-throughput measurement.
type serviceEntry struct {
	Name string `json:"name"`
	// Shards is the watosd fleet size behind the router (0 = direct daemon).
	Shards      int     `json:"shards,omitempty"`
	Jobs        int     `json:"jobs"`
	Coalesced   uint64  `json:"coalesced"`
	DedupRate   float64 `json:"dedup_rate"`
	WallSeconds float64 `json:"wall_seconds"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	// CompletionRate is the fraction of the burst that reached a result,
	// re-dispatched jobs included (chaos benchmarks only; 1 = lossless).
	CompletionRate float64 `json:"completion_rate,omitempty"`
	// RecoveredJobs counts jobs lost with a killed shard and recovered by
	// re-dispatching through the router to a surviving replica.
	RecoveredJobs int `json:"recovered_jobs,omitempty"`
	// FailoverMs is the mean latency of one recovery: loss detected to
	// recomputed result in hand on a survivor.
	FailoverMs float64 `json:"failover_latency_ms,omitempty"`
	// GoodputRate is the fraction of OFFERED jobs that completed within
	// their latency target (saturation benchmarks only): shed, expired and
	// past-target completions all count against it.
	GoodputRate float64 `json:"goodput_rate,omitempty"`
	// InteractiveP95Ms is the p95 submit-to-done latency of the completed
	// interactive jobs (saturation benchmarks only).
	InteractiveP95Ms float64 `json:"interactive_p95_ms,omitempty"`
	// ShedJobs / ExpiredJobs split the non-completions: refused at
	// admission (429) vs cancelled by their own deadline while queued.
	ShedJobs    int `json:"shed_jobs,omitempty"`
	ExpiredJobs int `json:"expired_jobs,omitempty"`
	// WarmHitRate is the fraction of fresh demand submissions that found
	// their caches already warm (prefetch-replay benchmarks only).
	WarmHitRate float64 `json:"warm_hit_rate,omitempty"`
	// MeanLatencyMs is the mean submit-to-done latency of the demand steps
	// (prefetch-replay benchmarks only).
	MeanLatencyMs float64 `json:"mean_latency_ms,omitempty"`
	// PrefetchIssued / PrefetchUseful count speculative evaluations admitted
	// and the distinct prefetched fingerprints demand later used.
	PrefetchIssued int `json:"prefetch_issued,omitempty"`
	PrefetchUseful int `json:"prefetch_useful,omitempty"`
}

// report is the BENCH_*.json schema.
type report struct {
	Tag        string         `json:"tag"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	Benchmarks []entry        `json:"benchmarks"`
	Service    []serviceEntry `json:"service_benchmarks"`
	// Baselines carries the acceptance benchmark of every prior PR
	// (oldest first), so improvement factors are recorded alongside the
	// measurement.
	Baselines       []taggedEntry      `json:"baselines"`
	BaselineNote    string             `json:"baseline_note"`
	SpeedupNs       map[string]float64 `json:"speedup_ns_vs"`
	SpeedupAllocs   map[string]float64 `json:"speedup_allocs_vs"`
	AcceptanceBench string             `json:"acceptance_benchmark"`
}

// Prior acceptance-benchmark measurements on the reference CI-class
// machine: PR 1 is the map-based mesh/collective hot path, PR 2 the dense
// plan-cached tree (from BENCH_pr2.json), PR 3 the service-era tree (from
// BENCH_pr3.json), PR 4 the incremental-scorer tree (from BENCH_pr4.json),
// PR 5 the sharded-tier tree (from BENCH_pr5.json), PR 6 the
// batched-evaluator tree (from BENCH_pr6.json), PR 7 the fleet-resilience
// tree (from BENCH_pr7.json), PR 8 the async-job-subsystem tree (from
// BENCH_pr8.json), PR 9 the overload-protection tree (from BENCH_pr9.json).
// The pr3-full-reeval annealer baseline is measured live
// in this run (the full-evaluation path still exists as
// placement.EvalAnchors), so its speedup factor is machine-exact.
var priorBaselines = []taggedEntry{
	{Tag: "pr1", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  3,
		NsPerOp:     247068009,
		AllocsPerOp: 1630840,
		BytesPerOp:  246066109,
	}},
	{Tag: "pr2", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  19,
		NsPerOp:     43253024.10526316,
		AllocsPerOp: 51357,
		BytesPerOp:  7922048,
	}},
	{Tag: "pr3", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  21,
		NsPerOp:     45128743.333333336,
		AllocsPerOp: 51364,
		BytesPerOp:  7922227,
	}},
	{Tag: "pr4", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  16,
		NsPerOp:     45791043.125,
		AllocsPerOp: 58052,
		BytesPerOp:  8406789,
	}},
	{Tag: "pr5", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  22,
		NsPerOp:     42581610.77272727,
		AllocsPerOp: 58052,
		BytesPerOp:  8406810,
	}},
	{Tag: "pr6", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  26,
		NsPerOp:     34619261.73076923,
		AllocsPerOp: 57986,
		BytesPerOp:  9165701,
	}},
	{Tag: "pr7", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  23,
		NsPerOp:     40383667.52173913,
		AllocsPerOp: 57986,
		BytesPerOp:  9165715,
	}},
	{Tag: "pr8", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  23,
		NsPerOp:     36608750.82608695,
		AllocsPerOp: 57986,
		BytesPerOp:  9165693,
	}},
	{Tag: "pr9", entry: entry{
		Name:        "search-sequential-nocache",
		Iterations:  21,
		NsPerOp:     42697981.71428572,
		AllocsPerOp: 57986,
		BytesPerOp:  9165726,
	}},
}

// pr5Placement carries the PR 5 tree's search inner-loop measurements
// (from BENCH_pr5.json, same reference machine) forward: the placement
// optimizer and GA entries are judged against them, benchmark by benchmark,
// via the pr5(<name>) speedup keys. That tree's anneal-swap entries are not
// carried: they timed a SwapDelta/Apply-or-Revert cycle (1-in-2 coin), while
// this tree's anneal-swap entries time the Scorer's price/commit cycle
// (1-in-8 commits), a different iteration.
var pr5Placement = []taggedEntry{
	{Tag: "pr5", entry: entry{Name: "optimize-placement-pp8", Iterations: 1224, NsPerOp: 820168.9232026144, AllocsPerOp: 72, BytesPerOp: 16446}},
	{Tag: "pr5", entry: entry{Name: "optimize-placement-pp32", Iterations: 178, NsPerOp: 5729976.926966292, AllocsPerOp: 349, BytesPerOp: 24666}},
	{Tag: "pr5", entry: entry{Name: "ga-generation", Iterations: 4077, NsPerOp: 17063.80866752514, AllocsPerOp: 81, BytesPerOp: 10123}},
}

// benchTarget is the wall-clock budget of one measured run. The iteration
// count is derived from a single warmup run, clamped to [minIters, maxIters].
const (
	benchTarget = time.Second
	minIters    = 5
	maxIters    = 1 << 20
)

// benchReps is the repetition count of every timed loop (the -reps flag):
// each benchmark runs benchReps full measurement loops and records the
// fastest one. Min-of-N is the standard noise estimator on shared machines —
// interference only ever adds time — while the allocation counters are
// deterministic and come from the first repetition.
var benchReps = 3

// run measures fn with -benchmem semantics: forced GC, warmup, then
// benchReps timed loops with Mallocs/HeapAlloc deltas, keeping the fastest.
// (The in-process testing.Benchmark harness inflates wall time on
// cgroup-limited machines, so the measurement loop is explicit — the
// numbers agree with `go test -bench`.)
func run(name string, fn func()) entry {
	runtime.GC()
	warm := time.Now()
	fn()
	iters := int(benchTarget / (time.Since(warm) + 1))
	if iters < minIters {
		iters = minIters
	}
	if iters > maxIters {
		iters = maxIters
	}
	var e entry
	var ms runtime.MemStats
	for rep := 0; rep < benchReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns := float64(elapsed.Nanoseconds()) / float64(iters)
		if rep == 0 {
			e = entry{
				Name:        name,
				Iterations:  iters,
				NsPerOp:     ns,
				AllocsPerOp: int64((ms.Mallocs - mallocs0) / uint64(iters)),
				BytesPerOp:  int64((ms.TotalAlloc - bytes0) / uint64(iters)),
			}
		} else if ns < e.NsPerOp {
			e.NsPerOp = ns
		}
	}
	fmt.Printf("%-32s %12.0f ns/op %10d allocs/op %12d B/op   (%d iters, best of %d)\n",
		name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp, iters, benchReps)
	return e
}

// burst fires jobs concurrently through the typed client, waits for every
// terminal state, and reports the wall time plus the dedup observed in the
// endpoint's stats — one driver for the direct-daemon and routed benchmarks,
// so both burst families measure identically. distinct jobs vary the seed so
// each is a separate fingerprint; identical jobs coalesce.
func burst(name string, c *client.Client, shards, jobs int, distinct bool) serviceEntry {
	ctx := context.Background()
	start := time.Now()
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	var submitErr error
	var mu sync.Mutex
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: 7}
			if distinct {
				req.Seed = int64(100 + i)
			}
			j, err := c.Submit(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				submitErr = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	if submitErr != nil {
		fmt.Fprintln(os.Stderr, "bench:", submitErr)
		os.Exit(1)
	}
	for _, id := range ids {
		if _, err := c.Wait(ctx, id); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	wall := time.Since(start)
	// Against a router this reads the flattened fleet aggregate, so the
	// plain client reads fleet-wide dedup the same way it reads one daemon's.
	st, err := c.Stats(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	e := serviceEntry{
		Name:        name,
		Shards:      shards,
		Jobs:        jobs,
		Coalesced:   st.JobsCoalesced,
		DedupRate:   st.DedupRate(),
		WallSeconds: wall.Seconds(),
		JobsPerSec:  float64(jobs) / wall.Seconds(),
	}
	suffix := fmt.Sprintf("(%d jobs)", jobs)
	if shards > 0 {
		suffix = fmt.Sprintf("(%d jobs, %d shards)", jobs, shards)
	}
	fmt.Printf("%-32s %12.2f jobs/s %9.0f%% dedup %12.3f s wall   %s\n",
		name, e.JobsPerSec, e.DedupRate*100, e.WallSeconds, suffix)
	return e
}

// serviceThroughput bursts against one in-process watosd behind a real HTTP
// listener. The shared predictor keeps cache keys stable across bursts, so
// the second burst genuinely runs over the caches the first one warmed.
func serviceThroughput(name string, jobs int, distinct bool, pred predictor.Predictor) serviceEntry {
	srv := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: jobs + 1}, pred)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	c.PollInterval = time.Millisecond
	return burst(name, c, 0, jobs, distinct)
}

// routedFleet stands up n in-process watosd shards behind a probed shard
// map and a router listener, returning a client bound to the router.
// resultCache > 0 enables the router's completed-result cache at that
// capacity (the throughput benchmarks keep it off so every burst pays for
// real routing).
func routedFleet(n int, pred predictor.Predictor, resultCache int) (*client.Client, func()) {
	var shards []*service.Server
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < n; i++ {
		s := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, pred)
		ts := httptest.NewServer(s.Handler())
		shards = append(shards, s)
		servers = append(servers, ts)
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	m := shard.NewMap(addrs, shard.Options{})
	m.Probe(context.Background())
	r := shard.NewRouter(m)
	r.Cache = shard.NewResultCache(resultCache)
	router := httptest.NewServer(r.Handler())
	c := client.New(router.URL)
	c.PollInterval = time.Millisecond
	cleanup := func() {
		router.Close()
		m.Close()
		for i := range shards {
			servers[i].Close()
			shards[i].Close()
		}
	}
	return c, cleanup
}

// routerThroughput fires a burst of jobs through the routing front-end over
// an n-shard fleet and reports sustained jobs/sec plus the fleet-wide dedup
// rate (the routed-dedup hit rate: identical jobs only coalesce because
// stable hashing sends them to one shard's singleflight).
func routerThroughput(name string, shards, jobs int, distinct bool, pred predictor.Predictor) serviceEntry {
	c, cleanup := routedFleet(shards, pred, 0)
	defer cleanup()
	return burst(name, c, shards, jobs, distinct)
}

// routerChaosBurst measures fleet resilience under a mid-burst crash: a
// distinct burst is submitted through the replicated router, then one
// shard's listener and state are torn down — the in-process equivalent of
// SIGKILL, aborting its connections and losing its in-memory jobs. Waits on
// jobs that died with the shard fail fast (the router has excluded it
// in-band), and each lost job is re-dispatched through the router, which now
// routes its fingerprint to a surviving replica. Reported: the completion
// rate with re-dispatches included (1 = the fleet lost nothing for good),
// the recovered-job count, and the mean failover latency — loss detected to
// recomputed result in hand on a survivor.
func routerChaosBurst(name string, nShards, jobs int, pred predictor.Predictor) serviceEntry {
	var shards []*service.Server
	var servers []*httptest.Server
	var addrs []string
	for i := 0; i < nShards; i++ {
		s := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 2, Backlog: 64}, pred)
		ts := httptest.NewServer(s.Handler())
		shards = append(shards, s)
		servers = append(servers, ts)
		addrs = append(addrs, strings.TrimPrefix(ts.URL, "http://"))
	}
	m := shard.NewMap(addrs, shard.Options{})
	m.Probe(context.Background())
	router := httptest.NewServer(shard.NewRouter(m).Handler())
	defer func() {
		router.Close()
		m.Close()
		for i := range shards {
			servers[i].Close()
			shards[i].Close()
		}
	}()
	c := client.New(router.URL)
	c.PollInterval = time.Millisecond

	ctx := context.Background()
	start := time.Now()
	ids := make([]string, jobs)
	reqs := make([]service.Request, jobs)
	var wg sync.WaitGroup
	var submitErr error
	var mu sync.Mutex
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reqs[i] = service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: int64(100 + i)}
			j, err := c.Submit(ctx, reqs[i])
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				submitErr = err
				return
			}
			ids[i] = j.ID
		}(i)
	}
	wg.Wait()
	if submitErr != nil {
		fmt.Fprintln(os.Stderr, "bench:", submitErr)
		os.Exit(1)
	}

	// The whole burst is accepted and mostly still queued (2 workers per
	// shard): kill shard 0 now, at the worst moment.
	servers[0].CloseClientConnections()
	servers[0].Close()
	shards[0].Close()

	var completed, recovered int
	var failoverNs time.Duration
	for i, id := range ids {
		if _, err := c.Wait(ctx, id); err == nil {
			completed++
			continue
		}
		t0 := time.Now()
		j, err := c.Run(ctx, reqs[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if j.State != service.StateDone {
			fmt.Fprintf(os.Stderr, "bench: recovered job %s state = %s, want done\n", j.ID, j.State)
			os.Exit(1)
		}
		failoverNs += time.Since(t0)
		recovered++
		completed++
	}
	wall := time.Since(start)
	e := serviceEntry{
		Name:           name,
		Shards:         nShards,
		Jobs:           jobs,
		WallSeconds:    wall.Seconds(),
		JobsPerSec:     float64(completed) / wall.Seconds(),
		CompletionRate: float64(completed) / float64(jobs),
	}
	if recovered > 0 {
		e.RecoveredJobs = recovered
		e.FailoverMs = float64(failoverNs.Milliseconds()) / float64(recovered)
	}
	fmt.Printf("%-32s %12.2f jobs/s %8.0f%% done %12.3f s wall   (%d recovered, %.1f ms mean failover)\n",
		name, e.JobsPerSec, e.CompletionRate*100, e.WallSeconds, recovered, e.FailoverMs)
	return e
}

// routerSweep scatter-gathers one Table II sweep through the router over an
// n-shard fleet (4 per-architecture parts fanned out by fingerprint, async
// handle + polled gather — the only sweep path since the async subsystem).
func routerSweep(name string, shards int, pred predictor.Predictor) serviceEntry {
	c, cleanup := routedFleet(shards, pred, 0)
	defer cleanup()
	start := time.Now()
	sw, err := c.Sweep(context.Background(), service.Request{Model: "Llama2-30B", Seq: 2048, Seed: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	e := serviceEntry{
		Name:        name,
		Shards:      shards,
		Jobs:        len(sw.Jobs),
		WallSeconds: wall.Seconds(),
		JobsPerSec:  float64(len(sw.Jobs)) / wall.Seconds(),
	}
	fmt.Printf("%-32s %12.2f parts/s %9s %12.3f s wall   (%d parts, %d shards)\n",
		name, e.JobsPerSec, "", e.WallSeconds, e.Jobs, shards)
	return e
}

// asyncSweepRows measures the async handle's incremental payoff over an
// n-shard fleet: time to the FIRST consumable per-architecture row versus
// time to the fully merged record, in one scattered sweep. The gap is what
// a synchronous caller used to spend staring at a blocked request.
func asyncSweepRows(shards int, pred predictor.Predictor) (first, merged serviceEntry) {
	c, cleanup := routedFleet(shards, pred, 0)
	defer cleanup()
	ctx := context.Background()
	start := time.Now()
	st, err := c.StartSweep(ctx, service.Request{Model: "Llama2-30B", Seq: 2048, Seed: 7})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	var firstRow time.Duration
	st, err = c.WaitSweep(ctx, st.ID, func(leg service.SweepLeg) {
		if firstRow == 0 {
			firstRow = time.Since(start)
		}
	})
	if err != nil || st.State != service.StateDone {
		fmt.Fprintf(os.Stderr, "bench: async sweep: %v (%s %s)\n", err, st.State, st.Error)
		os.Exit(1)
	}
	wall := time.Since(start)
	name := fmt.Sprintf("router-%dshard-async-sweep", shards)
	first = serviceEntry{
		Name: name + "-first-row", Shards: shards, Jobs: 1,
		WallSeconds: firstRow.Seconds(), JobsPerSec: 1 / firstRow.Seconds(),
	}
	merged = serviceEntry{
		Name: name + "-merged", Shards: shards, Jobs: st.Total,
		WallSeconds: wall.Seconds(), JobsPerSec: float64(st.Total) / wall.Seconds(),
	}
	fmt.Printf("%-32s %12.3f s to first row %7.3f s to merge   (%d parts, %d shards)\n",
		name, first.WallSeconds, merged.WallSeconds, st.Total, shards)
	return first, merged
}

// priorityLatency measures one job's submit-to-done latency on a
// single-job-worker daemon whose queue holds a bulk async sweep backlog
// (4 distinct Table II sweeps = 16 queued sweep-leg jobs). priority "" is
// the interactive default — the job overtakes the backlog; "background"
// waits out every leg. The pair quantifies what priority dispatch buys an
// interactive caller under bulk load.
func priorityLatency(name, priority string, pred predictor.Predictor) serviceEntry {
	srv := service.NewServer(service.Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 64}, pred)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	c.PollInterval = time.Millisecond
	ctx := context.Background()

	for seed := int64(1); seed <= 4; seed++ {
		if _, err := c.StartSweep(ctx, service.Request{Model: "Llama2-30B", Seq: 2048, Seed: seed}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	j, err := c.Run(ctx, service.Request{
		Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: 99, Priority: priority,
	})
	if err != nil || j.State != service.StateDone {
		fmt.Fprintf(os.Stderr, "bench: %s: %v (%s)\n", name, err, j.State)
		os.Exit(1)
	}
	wall := time.Since(start)
	e := serviceEntry{
		Name: name, Jobs: 1,
		WallSeconds: wall.Seconds(), JobsPerSec: 1 / wall.Seconds(),
	}
	fmt.Printf("%-32s %12.1f ms latency %22s (16 sweep legs queued)\n",
		name, wall.Seconds()*1e3, "")
	return e
}

// cacheRepeatBurst measures the completed-result cache: a distinct burst is
// run and polled to completion (the polls land every record in the router
// cache), then the identical burst repeats — every job must be answered
// terminally at the router, without one submission crossing the fleet. The
// recorded entry is the repeat burst.
func cacheRepeatBurst(name string, shards, jobs int, pred predictor.Predictor) serviceEntry {
	c, cleanup := routedFleet(shards, pred, 4096)
	defer cleanup()
	ctx := context.Background()
	reqs := make([]service.Request, jobs)
	for i := range reqs {
		reqs[i] = service.Request{Model: "Llama2-30B", Config: "config3", Seq: 2048, Seed: int64(100 + i)}
		if _, err := c.Run(ctx, reqs[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	start := time.Now()
	for i := range reqs {
		j, err := c.Run(ctx, reqs[i])
		if err != nil || !strings.HasPrefix(j.ID, "cache/") {
			fmt.Fprintf(os.Stderr, "bench: repeat %d not cache-served: %v (job %s)\n", i, err, j.ID)
			os.Exit(1)
		}
	}
	wall := time.Since(start)
	e := serviceEntry{
		Name: name, Shards: shards, Jobs: jobs,
		WallSeconds: wall.Seconds(), JobsPerSec: float64(jobs) / wall.Seconds(),
	}
	fmt.Printf("%-32s %12.2f jobs/s %9s %12.3f s wall   (%d repeats, all cache-served)\n",
		name, e.JobsPerSec, "", e.WallSeconds, jobs)
	return e
}

// saturationBurst drives one single-worker daemon at a sustained ~2x+
// offered load — rounds of distinct full-sweep GA jobs, bulk background
// legs plus an interactive pair per round — and reports goodput (the
// fraction of OFFERED work that completed within its latency target) and
// the interactive p95 of what completed. With protect=true the daemon
// sheds over-budget background work at admission (429) and every request
// carries its target as a hard deadline, so hopeless jobs fail fast and
// the worker only burns time on work that can still be good; with
// protect=false everything is admitted and runs to completion, so the
// queue grows without bound and late jobs drag both metrics down. The
// pair is the overload-protection acceptance measurement: protection must
// win on goodput and on interactive p95.
func saturationBurst(name string, protect bool, pred predictor.Predictor) serviceEntry {
	opts := service.Options{EvalWorkers: 1, JobWorkers: 1, Backlog: 256}
	if protect {
		opts.ClassBudgets[pool.Background] = 2
	}
	srv := service.NewServer(opts, pred)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	c.PollInterval = time.Millisecond
	ctx := context.Background()

	const (
		rounds      = 6
		bgPerRound  = 3
		intPerRound = 2
		roundGap    = 300 * time.Millisecond
		bgTarget    = 2500 * time.Millisecond
		intTarget   = 1200 * time.Millisecond
	)
	type outcome struct {
		interactive bool
		done        bool
		shed        bool
		expired     bool
		latency     time.Duration
		target      time.Duration
	}
	offered := rounds * (bgPerRound + intPerRound)
	outcomes := make([]outcome, offered)
	var wg sync.WaitGroup
	start := time.Now()
	idx := 0
	launch := func(interactive bool) {
		o := &outcomes[idx]
		seed := int64(idx)
		idx++
		o.interactive = interactive
		o.target = bgTarget
		req := service.Request{
			UseGA: true, Batch: 64 + int(seed), Seed: seed, Priority: "background",
		}
		if interactive {
			o.target = intTarget
			req.Priority = "interactive"
		}
		if protect {
			req.DeadlineMS = o.target.Milliseconds()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			j, err := c.Run(ctx, req)
			o.latency = time.Since(t0)
			var se *client.StatusError
			switch {
			case err == nil && j.State == service.StateDone:
				o.done = true
			case err == nil && j.State == service.StateExpired:
				o.expired = true
			case errors.As(err, &se) && se.Code == 429:
				o.shed = true
			case err != nil:
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		for i := 0; i < bgPerRound; i++ {
			launch(false)
		}
		for i := 0; i < intPerRound; i++ {
			launch(true)
		}
		time.Sleep(roundGap)
	}
	wg.Wait()
	wall := time.Since(start)

	var good, shed, expired int
	var intLat []time.Duration
	for _, o := range outcomes {
		if o.done && o.latency <= o.target {
			good++
		}
		if o.shed {
			shed++
		}
		if o.expired {
			expired++
		}
		if o.interactive && o.done {
			intLat = append(intLat, o.latency)
		}
	}
	e := serviceEntry{
		Name: name, Jobs: offered,
		WallSeconds: wall.Seconds(),
		JobsPerSec:  float64(good) / wall.Seconds(),
		GoodputRate: float64(good) / float64(offered),
		ShedJobs:    shed,
		ExpiredJobs: expired,
	}
	if len(intLat) > 0 {
		sort.Slice(intLat, func(a, b int) bool { return intLat[a] < intLat[b] })
		p95 := intLat[(len(intLat)*95+99)/100-1]
		e.InteractiveP95Ms = float64(p95.Nanoseconds()) / 1e6
	}
	fmt.Printf("%-32s %11.0f%% goodput %8.0f ms int-p95 %10.3f s wall   (%d offered, %d shed, %d expired)\n",
		name, e.GoodputRate*100, e.InteractiveP95Ms, e.WallSeconds, offered, shed, expired)
	return e
}

// p95OrInf is a saturation entry's interactive p95 for the gate, +Inf when
// no interactive job completed (saturationBurst leaves the field 0).
func p95OrInf(e serviceEntry) float64 {
	if e.InteractiveP95Ms <= 0 {
		return math.Inf(1)
	}
	return e.InteractiveP95Ms
}

// recordRatio records num/den under key when both sides are positive. A zero
// side (no goodput, no completed interactive job) has no ratio, and the
// report's JSON cannot carry +Inf or NaN, so the key is left out and the
// run says so.
func recordRatio(m map[string]float64, key string, num, den float64) {
	if num > 0 && den > 0 {
		m[key] = num / den
		return
	}
	fmt.Printf("%-40s not recorded: %g / %g has a zero side\n", key, num, den)
}

// sweepTrail is the demand trajectory of the prefetch-replay pair: a client
// stepping through adjacent TP points of a fixed-config sweep at two batch
// sizes — exactly the spatial locality the neighbor predictor mines (each
// step's successor is the step's own TP-doubling neighbor).
func sweepTrail() []service.Request {
	var trail []service.Request
	for _, batch := range []int{64, 128} {
		for _, tp := range []int{1, 2, 4} {
			trail = append(trail, service.Request{
				Model: "Llama2-30B", Config: "config3", Seq: 2048, Batch: batch, FixedTP: tp,
			})
		}
	}
	return trail
}

// recordTrail drives the sweep trajectory against a throwaway recorder
// daemon and pulls it back over GET /v1/trace, rebuilding the demand
// requests from the traced coordinates — the replay below runs off the
// recorded trace, not the generator, so the trace endpoint itself is under
// test.
func recordTrail(pred predictor.Predictor, fail func(error)) []service.Request {
	srv := service.NewServer(service.Options{EvalWorkers: 2, JobWorkers: 1, Backlog: 64}, pred)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	c.PollInterval = time.Millisecond
	ctx := context.Background()
	for _, req := range sweepTrail() {
		j, err := c.Run(ctx, req)
		if err == nil && j.State != service.StateDone {
			err = fmt.Errorf("trail job %s: %s", j.ID, j.State)
		}
		fail(err)
	}
	resp, err := http.Get(ts.URL + "/v1/trace")
	fail(err)
	defer resp.Body.Close()
	var info service.TraceInfo
	fail(json.NewDecoder(resp.Body).Decode(&info))
	if len(info.Entries) != len(sweepTrail()) {
		fail(fmt.Errorf("trace recorded %d entries, want %d", len(info.Entries), len(sweepTrail())))
	}
	trail := make([]service.Request, len(info.Entries))
	for i, e := range info.Entries {
		p := e.Req
		trail[i] = service.Request{
			Model: p.Model, Config: p.Config, Seq: p.Seq, Batch: p.Batch,
			FixedTP: p.TP, FixedPP: p.PP, UseGA: p.GA,
		}
	}
	return trail
}

// prefetchReplay replays the recorded trajectory against a fresh
// single-worker daemon, pausing after each demand step until the daemon is
// fully idle — the window the speculative lane fills. With prefetchOn the
// daemon predicts each step's sweep neighbors and pre-evaluates the best
// one into the shared caches, so the next step arrives warm; off is the
// demand-only reference. Reported per variant: warm-hit rate (the
// acceptance metric), mean demand latency, and the prefetch counters.
func prefetchReplay(name string, prefetchOn bool, trail []service.Request, pred predictor.Predictor) serviceEntry {
	srv := service.NewServer(service.Options{
		EvalWorkers: 2, JobWorkers: 1, Backlog: 64,
		Prefetch: prefetchOn, PrefetchFanout: 1,
	}, pred)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := client.New(ts.URL)
	c.PollInterval = time.Millisecond
	ctx := context.Background()

	// Wait for queue and workers to go fully idle — queued and in-flight
	// speculation included — so every step's prefetch completes before the
	// next demand arrival, and the off-variant measures the same cadence.
	// Speculation launches on its own goroutine after the demand job
	// completes, so idle must hold stably, not just once — a single
	// idle observation can land before the prediction is even submitted.
	idle := func() {
		deadline := time.Now().Add(30 * time.Second)
		stable := 0
		for time.Now().Before(deadline) {
			if st := srv.Stats(); st.QueueDepth == 0 && st.JobsInFlight == 0 {
				if stable++; stable >= 10 {
					return
				}
			} else {
				stable = 0
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	start := time.Now()
	var demand time.Duration
	for _, req := range trail {
		t0 := time.Now()
		j, err := c.Run(ctx, req)
		if err != nil || j.State != service.StateDone {
			fmt.Fprintf(os.Stderr, "bench: %s: %v (%s)\n", name, err, j.State)
			os.Exit(1)
		}
		demand += time.Since(t0)
		idle()
	}
	wall := time.Since(start)
	st := srv.Stats()
	e := serviceEntry{
		Name: name, Jobs: len(trail),
		WallSeconds:    wall.Seconds(),
		JobsPerSec:     float64(len(trail)) / wall.Seconds(),
		WarmHitRate:    float64(st.HitsDemand+st.HitsPrefetch) / float64(st.JobsSubmitted),
		MeanLatencyMs:  demand.Seconds() * 1e3 / float64(len(trail)),
		PrefetchIssued: int(st.PrefetchIssued),
		PrefetchUseful: int(st.PrefetchUseful),
	}
	fmt.Printf("%-32s %11.0f%% warm-hit %9.1f ms mean %10.3f s wall   (%d steps, %d prefetched, %d useful)\n",
		name, e.WarmHitRate*100, e.MeanLatencyMs, e.WallSeconds, len(trail), e.PrefetchIssued, e.PrefetchUseful)
	return e
}

// gaGenerationBench runs a fixed-generation GA optimize and reports
// per-generation cost (total metrics divided by the generation count).
func gaGenerationBench(name string, fail func(error)) entry {
	const gens = 16
	prob, seed, err := benchutil.GAProblem()
	fail(err)
	var iter int64
	e := run(name, func() {
		iter++
		_, err := ga.Optimize(prob, seed, ga.Options{
			Population: 24, Generations: gens, Omega: 0.5, Seed: iter, Workers: 1,
		})
		fail(err)
	})
	e.NsPerOp /= gens
	e.AllocsPerOp /= gens
	e.BytesPerOp /= gens
	return e
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output JSON path")
	reps := flag.Int("reps", benchReps, "timed-loop repetitions per benchmark (best is recorded)")
	flag.Parse()
	benchReps = *reps
	if benchReps < 1 {
		benchReps = 1
	}

	pred := predictor.NewLookupTable(predictor.TileLevel{})
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}

	rep := report{
		Tag:       "pr10",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Baselines: append(append([]taggedEntry{}, priorBaselines...), pr5Placement...),
		BaselineNote: "baselines measured on the respective PR trees on the reference dev machine; " +
			"speedup_ns_vs is only meaningful on comparable hardware — " +
			"speedup_allocs_vs is machine-independent",
		AcceptanceBench: "search-sequential-nocache",
		SpeedupNs:       map[string]float64{},
		SpeedupAllocs:   map[string]float64{},
	}

	fail := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}

	// Acceptance benchmark: single-worker search with memoization disabled —
	// the strictly sequential, cache-cold configuration of the seed.
	seq := run("search-sequential-nocache", func() {
		_, err := sched.Search(hw.Config3(), model.Llama2_30B(), work, pred,
			sched.Options{Workers: 1, DisableCache: true})
		fail(err)
	})
	rep.Benchmarks = append(rep.Benchmarks, seq)
	for _, b := range priorBaselines {
		rep.SpeedupNs[b.Tag] = b.NsPerOp / seq.NsPerOp
		rep.SpeedupAllocs[b.Tag] = float64(b.AllocsPerOp) / float64(seq.AllocsPerOp)
	}

	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Benchmarks = append(rep.Benchmarks, run("search-parallel-cached", func() {
		_, err := sched.Search(hw.Config3(), model.Llama2_30B(), work, pred,
			sched.Options{Workers: 0})
		fail(err)
	}))

	// Evaluator micro-benchmarks on the best fixed strategy.
	res, err := sched.Search(hw.Config3(), model.Llama2_30B(), work, pred,
		sched.Options{FixedTP: 4, FixedPP: 7})
	fail(err)
	cfg := engine.Config{
		Wafer: hw.Config3(), Spec: model.Llama2_30B(), Workload: work,
		TP: res.Best.TP, PP: res.Best.PP, Collective: res.Best.Collective, Predictor: pred,
	}
	m := mesh.New(hw.Config3())
	strat := res.Best.Strategy

	rep.Benchmarks = append(rep.Benchmarks, run("evaluate-cold", func() {
		collective.ResetPlanCache()
		_, err := sim.Evaluate(cfg, m, strat)
		fail(err)
	}))
	rep.Benchmarks = append(rep.Benchmarks, run("evaluate-warm", func() {
		_, err := sim.Evaluate(cfg, m, strat)
		fail(err)
	}))

	group := collective.Rectangle(0, 0, 4, 2)
	rep.Benchmarks = append(rep.Benchmarks, run("allreduce-plan-warm", func() {
		_, err := collective.AllReduce(m, group, 1e9, collective.BiRing)
		fail(err)
	}))
	rep.Benchmarks = append(rep.Benchmarks, run("allreduce-plan-cold", func() {
		collective.ResetPlanCache()
		_, err := collective.AllReduce(m, group, 1e9, collective.BiRing)
		fail(err)
	}))

	// Annealer iteration: the Scorer's price/commit cycle vs the PR3-era
	// full Eq 2 re-evaluation, measured in the same run on the scale wafer
	// (12×12 dies, pp=128 single-die stages, 32 Mem_pairs) and at Config3
	// scale (pp=32, 8 pairs). The full-re-evaluation numbers are recorded as
	// pr3-full-reeval baselines so the speedup travels with the file.
	for _, cfg := range []struct {
		name   string
		mesh   *mesh.Mesh
		pp, np int
	}{
		{"anneal-swap", benchutil.ScaleWafer(), 128, 32},
		{"anneal-swap-pp32", mesh.New(hw.Config3()), 32, 8},
	} {
		anchors, wl, err := benchutil.AnnealSubstrate(cfg.mesh, 1, cfg.pp, cfg.np)
		fail(err)
		cycle := benchutil.AnnealBatchCycle(placement.NewScorer(cfg.mesh, anchors, wl), cfg.pp, rand.New(rand.NewSource(1)))
		// Enforce the zero-allocation contract of the inner loop.
		if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
			fail(fmt.Errorf("%s: annealer inner loop allocates %.2f objects/op, want 0", cfg.name, allocs))
		}
		priced := run(cfg.name, cycle)
		rep.Benchmarks = append(rep.Benchmarks, priced)

		full := run(cfg.name+"-full-reeval",
			benchutil.AnnealSwapCycleFull(cfg.mesh, anchors, wl, cfg.mesh.NewLinkSet(), cfg.pp, rand.New(rand.NewSource(1))))
		full.Name = cfg.name
		rep.Baselines = append(rep.Baselines, taggedEntry{Tag: "pr3-full-reeval", entry: full})
		rep.SpeedupNs["pr3-full-reeval("+cfg.name+")"] = full.NsPerOp / priced.NsPerOp
	}

	// End-to-end §IV-C-1 annealing searches (200·pp iterations each),
	// recorded next to the pr5 baselines.
	for _, cfg := range []struct {
		name       string
		scale      bool
		tp, pp, np int
	}{
		{"optimize-placement-pp8", false, 7, 8, 2},
		{"optimize-placement-pp32", false, 1, 32, 8},
		{"optimize-placement-pp128", true, 1, 128, 32},
	} {
		om := mesh.New(hw.Config3())
		if cfg.scale {
			om = benchutil.ScaleWafer()
		}
		// The substrate's pairs and volumes are stage-indexed, so the same
		// workload drives any (tp, pp) partition of the mesh.
		_, wl, err := benchutil.AnnealSubstrate(om, 1, cfg.pp, cfg.np)
		fail(err)
		var seed int64
		rep.Benchmarks = append(rep.Benchmarks, run(cfg.name, func() {
			seed++
			_, err := placement.Optimize(om, cfg.tp, cfg.pp, wl, rand.New(rand.NewSource(seed)))
			fail(err)
		}))
	}

	rep.Benchmarks = append(rep.Benchmarks, gaGenerationBench("ga-generation", fail))

	// Per-benchmark improvement over the PR 5 tree, recorded against the
	// carried-forward baselines.
	for _, base := range pr5Placement {
		for _, b := range rep.Benchmarks {
			if b.Name == base.Name {
				rep.SpeedupNs["pr5("+base.Name+")"] = base.NsPerOp / b.NsPerOp
			}
		}
	}

	// Service throughput: concurrent identical jobs coalesce onto one
	// execution (the dedup path), concurrent distinct jobs stream through
	// the bounded queue over warm caches (the resident-daemon path). Cold
	// caches first so the identical burst includes one real execution;
	// both bursts share the process predictor so their cache keys agree.
	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Service = append(rep.Service, serviceThroughput("service-identical-burst", 32, false, pred))
	rep.Service = append(rep.Service, serviceThroughput("service-distinct-burst", 32, true, pred))

	// Sharded tier: the distinct burst through the routing front-end over 1
	// vs 2 shards (scaling: two daemons drain two bounded queues), the
	// identical burst through the router (routed-dedup: stable hashing keeps
	// every duplicate on one shard's singleflight), and scatter-gathered
	// Table II sweeps. Caches reset before each run so every burst pays its
	// own cold start.
	for _, cfg := range []struct {
		name     string
		shards   int
		distinct bool
	}{
		{"router-1shard-distinct-burst", 1, true},
		{"router-2shard-distinct-burst", 2, true},
		{"router-2shard-identical-burst", 2, false},
	} {
		search.DefaultCache().Reset()
		sched.ResetCache()
		rep.Service = append(rep.Service, routerThroughput(cfg.name, cfg.shards, 32, cfg.distinct, pred))
	}
	for _, shards := range []int{1, 2} {
		search.DefaultCache().Reset()
		sched.ResetCache()
		rep.Service = append(rep.Service, routerSweep(fmt.Sprintf("router-%dshard-sweep", shards), shards, pred))
	}

	// Async job subsystem: incremental per-architecture rows from a sweep
	// handle (time-to-first-row vs full merge), interactive-vs-background
	// latency under a bulk sweep backlog (priority dispatch), and the
	// repeat burst answered entirely from the router's completed-result
	// cache.
	search.DefaultCache().Reset()
	sched.ResetCache()
	first, mergedE := asyncSweepRows(2, pred)
	rep.Service = append(rep.Service, first, mergedE)
	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Service = append(rep.Service, priorityLatency("interactive-under-bulk-sweep", "", pred))
	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Service = append(rep.Service, priorityLatency("background-under-bulk-sweep", "background", pred))
	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Service = append(rep.Service, cacheRepeatBurst("router-cache-repeat-burst", 2, 32, pred))

	// Fleet resilience: the distinct burst again, but one of the three
	// replicated shards is killed while the burst is queued.
	search.DefaultCache().Reset()
	sched.ResetCache()
	rep.Service = append(rep.Service, routerChaosBurst("router-3shard-kill-mid-burst", 3, 32, pred))

	// Overload protection: the same 2x+ saturation pattern with admission
	// control + deadlines on versus everything admitted. Protection must
	// win on goodput AND on interactive p95, or the run fails — this is the
	// PR's acceptance measurement, not an informational number.
	search.DefaultCache().Reset()
	sched.ResetCache()
	protected := saturationBurst("saturation-2x-shedding", true, pred)
	search.DefaultCache().Reset()
	sched.ResetCache()
	unprotected := saturationBurst("saturation-2x-no-shedding", false, pred)
	rep.Service = append(rep.Service, protected, unprotected)
	if protected.GoodputRate <= unprotected.GoodputRate {
		fail(fmt.Errorf("shedding lost on goodput: %.2f protected vs %.2f unprotected",
			protected.GoodputRate, unprotected.GoodputRate))
	}
	// A side with no completed interactive job has no p95 sample (0): it
	// compares as +Inf, so protection cannot win on a side it never served.
	if p95OrInf(protected) >= p95OrInf(unprotected) {
		fail(fmt.Errorf("shedding lost on interactive p95: %.0f ms protected vs %.0f ms unprotected",
			p95OrInf(protected), p95OrInf(unprotected)))
	}
	recordRatio(rep.SpeedupNs, "goodput(shedding/no-shedding)", protected.GoodputRate, unprotected.GoodputRate)
	recordRatio(rep.SpeedupNs, "interactive-p95(no-shedding/shedding)", unprotected.InteractiveP95Ms, protected.InteractiveP95Ms)

	// Speculative prefetch: record the sweep trajectory once (and read it
	// back over GET /v1/trace), then replay it against fresh daemons with
	// the idle-capacity prefetch lane on vs off. Prefetch must strictly win
	// the warm-hit rate, or the run fails — the PR's acceptance measurement.
	search.DefaultCache().Reset()
	sched.ResetCache()
	trail := recordTrail(pred, fail)
	search.DefaultCache().Reset()
	sched.ResetCache()
	pfOn := prefetchReplay("prefetch-replay-on", true, trail, pred)
	search.DefaultCache().Reset()
	sched.ResetCache()
	pfOff := prefetchReplay("prefetch-replay-off", false, trail, pred)
	rep.Service = append(rep.Service, pfOn, pfOff)
	if pfOn.WarmHitRate <= pfOff.WarmHitRate {
		fail(fmt.Errorf("prefetch lost on warm-hit rate: %.2f on vs %.2f off",
			pfOn.WarmHitRate, pfOff.WarmHitRate))
	}
	recordRatio(rep.SpeedupNs, "mean-latency(no-prefetch/prefetch)", pfOff.MeanLatencyMs, pfOn.MeanLatencyMs)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s  (speedup vs pr2 baseline: %.2fx ns/op, %.2fx allocs/op)\n",
		*out, rep.SpeedupNs["pr2"], rep.SpeedupAllocs["pr2"])
}
