package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/predictor"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/shard"
)

// fleet is an in-process watos-router over two watosd shards, each behind
// its own loopback HTTP listener. In-process shards share the process-wide
// sched and search caches, which separate daemons would not.
type fleet struct {
	shards  []*service.Server
	servers []*http.Server
	serving sync.WaitGroup
	m       *shard.Map
	base    string
	c       *client.Client
	hc      *http.Client
}

// startFleet builds the fleet with the watos-router command's defaults
// (result cache 4096, 2 replicas, breakers on, prefetch off) over shards
// with one job worker and one evaluation worker each.
func startFleet(pred predictor.Predictor) (*fleet, error) {
	f := &fleet{hc: &http.Client{}}
	var addrs []string
	for i := 0; i < 2; i++ {
		svc := service.NewServer(service.Options{JobWorkers: 1, EvalWorkers: 1}, pred)
		f.shards = append(f.shards, svc)
		addr, err := f.serve(svc.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	f.m = shard.NewMap(addrs, shard.Options{
		HealthInterval: 2 * time.Second,
		ProbeTimeout:   2 * time.Second,
		FailAfter:      2,
		Replicas:       2,
		Breaker: shard.BreakerOptions{Window: 20, MinSamples: 8, ErrorRate: 0.5,
			LatencyP95: 2 * time.Second, Cooldown: 5 * time.Second},
	})
	f.m.Probe(context.Background())
	f.m.Start()
	router := shard.NewRouter(f.m)
	router.SweepRetries = 2
	router.Cache = shard.NewResultCache(4096)
	router.SweepTTL = 15 * time.Minute
	router.SweepHistory = 256
	addr, err := f.serve(router.Handler())
	if err != nil {
		f.close()
		return nil, err
	}
	f.base = "http://" + addr
	f.c = client.New(addr)
	// A 1 ms poll keeps the client's own wait from quantizing job latency.
	f.c.PollInterval = time.Millisecond
	return f, nil
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return ln.Addr().String(), nil
}

// close stops the listeners, the health prober and the shards, and waits
// for every serving goroutine to return.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	f.serving.Wait()
	if f.m != nil {
		f.m.Close()
	}
	for _, s := range f.shards {
		s.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// job submits one job through the router and waits for its record.
func (f *fleet) job(ctx context.Context, req service.Request, rec *recorder, opID, parent int) (service.Job, error) {
	id := rec.begin("client.submit", opID, parent)
	j, _, err := f.c.SubmitJob(ctx, req)
	rec.end(id)
	if err == nil && !j.State.Terminal() {
		id = rec.begin("client.wait", opID, parent)
		j, err = f.c.Wait(ctx, j.ID)
		rec.end(id)
	}
	if err == nil && (j.State != service.StateDone || j.Result == nil) {
		err = fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	return j, err
}

// sweep sends one blocking POST /v1/sweeps?wait=1.
func (f *fleet) sweep(ctx context.Context, req service.Request, rec *recorder, opID, parent int) (service.SweepResult, error) {
	id := rec.begin("client.sweep", opID, parent)
	defer rec.end(id)
	body, err := json.Marshal(req)
	if err != nil {
		return service.SweepResult{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/v1/sweeps?wait=1", bytes.NewReader(body))
	if err != nil {
		return service.SweepResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(hreq)
	if err != nil {
		return service.SweepResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return service.SweepResult{}, fmt.Errorf("sweep: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var res service.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, err
	}
	if res.Result == nil || len(res.Jobs) != len(tableII) {
		return res, fmt.Errorf("sweep: %d legs, merged result present %v", len(res.Jobs), res.Result != nil)
	}
	for _, leg := range res.Jobs {
		if leg.Degraded {
			return res, fmt.Errorf("sweep: leg %s degraded", leg.Config)
		}
	}
	return res, nil
}

// stats reads the router's /v1/stats.
func (f *fleet) stats(ctx context.Context) (shard.RouterStats, error) {
	var st shard.RouterStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// warmFleet is the fleet's untimed warm-up: one in-process search per
// (model, architecture) pair with seed 0, which no timed op uses, so the
// predictor lookup table and the collective plan cache fill without any
// timed fingerprint reaching a cache. The memo caches are emptied after.
func warmFleet(pred predictor.Predictor) error {
	for _, m := range benchModels {
		for _, a := range singleArchs {
			p, err := resolve(service.Request{Model: m, Config: a, Batch: 64}, pred)
			if err != nil {
				return err
			}
			if _, err := p.run(); err != nil {
				return fmt.Errorf("warm-up %s on %s: %w", m, a, err)
			}
		}
	}
	resetMemo()
	return nil
}

// setupFleet builds the system from scratch and warms it.
func setupFleet() (*fleet, predictor.Predictor, error) {
	collective.ResetPlanCache()
	resetMemo()
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	f, err := startFleet(pred)
	if err != nil {
		return nil, nil, err
	}
	if err := warmFleet(pred); err != nil {
		f.close()
		return nil, nil, err
	}
	return f, pred, nil
}

// fleetSample picks the ops whose routed records are compared with an
// in-process co-exploration: a seeded handful of jobs and sweeps.
func fleetSample(list opList, seed int64) []int {
	rng := newRand("fleet-sample", seed)
	var jobs, sweeps []int
	for i, o := range list.Ops {
		switch o.Class {
		case classJob:
			jobs = append(jobs, i)
		case classSweep:
			sweeps = append(sweeps, i)
		}
	}
	pick := func(from []int, k int) []int {
		var out []int
		for _, x := range rng.Perm(len(from))[:min(k, len(from))] {
			out = append(out, from[x])
		}
		return out
	}
	return append(pick(jobs, 6), pick(sweeps, 2)...)
}

// runFleet drives fleet-mixed: a closed loop over the op list from one
// client through the router.
func runFleet(rc runConfig) (*outcome, error) {
	list, err := genOps(rc.workload, rc.seed, opCount(rc.workload, rc.seconds))
	if err != nil {
		return nil, err
	}
	repeats := setupRepeats
	if rc.trace {
		repeats = 1
	}
	host := newHostSpeed()
	clk := &clock{}
	var f *fleet
	var pred predictor.Predictor
	for i := 0; i < repeats; i++ {
		if f != nil {
			f.close()
		}
		if err := clk.setUp(func() (err error) {
			f, pred, err = setupFleet()
			return err
		}); err != nil {
			return nil, err
		}
	}
	defer f.close()

	out := &outcome{attempted: len(list.Ops), record: map[string]any{
		"ops_by_class":    list.classCounts(),
		"distinct_points": len(list.Points),
	}}
	ctx := context.Background()
	runtime.GC()

	var tr *fleetTrace
	if rc.trace {
		tr = &fleetTrace{rec: newRecorder(), pred: pred,
			replayEv: search.Cached(search.SimEvaluator{}, search.NewCache(search.DefaultCacheCapacity))}
		if tr.before, err = f.stats(ctx); err != nil {
			return nil, err
		}
		tr.loopStart = time.Now()
		tr.rt.startLoop()
	}
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	digests := make([][32]byte, len(list.Ops))
	pflops := make([]float64, len(list.Points))
	completed := 0
	for i, o := range list.Ops {
		host.sample(len(list.Ops))
		root := rec.begin("op", i, -1)
		var j service.Job
		var sw service.SweepResult
		var res *service.Result
		var opErr error
		run := func() {
			if o.Class == classSweep {
				if sw, opErr = f.sweep(ctx, o.Req, rec, i, root); opErr == nil {
					res = sw.Result
				}
			} else if j, opErr = f.job(ctx, o.Req, rec, i, root); opErr == nil {
				res = j.Result
			}
		}
		if tr != nil {
			tr.rt.bracket(func() { clk.op(run) })
		} else {
			clk.op(run)
		}
		// Output checks, outside the timed call.
		if opErr != nil {
			out.fail("op %d (%s %s): %v", i, o.Class, o.Req.Fingerprint(), opErr)
			out.failed++
			rec.end(root)
			continue
		}
		completed++
		digests[i] = digest(res.Canonical)
		pflops[o.Point] = res.Throughput / 1e15
		if o.Class == classRepeat && digests[o.Of] != ([32]byte{}) && digests[i] != digests[o.Of] {
			out.fail("op %d: repeat of op %d answered a different record", i, o.Of)
			out.failed++
		}
		if tr != nil {
			if err := tr.observe(ctx, f, out, i, o, root, clk.wall[i], j, sw); err != nil {
				return nil, err
			}
		}
		rec.end(root)
	}

	// The ROADMAP's byte-identity contract on a seeded sample: a routed
	// record equals the same co-exploration run in-process, caches off.
	for _, i := range fleetSample(list, rc.seed) {
		if digests[i] == ([32]byte{}) {
			continue // already failed
		}
		o := list.Ops[i]
		p, err := resolve(o.Req, pred)
		if err != nil {
			return nil, err
		}
		p.opts.DisableCache = true
		er, err := p.run()
		if err != nil || digest(service.Canonical(er)) != digests[i] {
			out.fail("op %d (%s %s): routed record differs from the in-process record (err %v)", i, o.Class, o.Req.Fingerprint(), err)
			out.failed++
		}
	}

	if tr != nil {
		return out, tr.finish(ctx, f, out, rc, len(list.Ops))
	}
	endToEnd(out, host, clk, list.keys(), completed, pflops)
	return out, nil
}

// fleetTrace gathers the traced fleet run's per-layer data: client spans,
// server intervals from the job records the API returns, the replayed
// search layers of every shard-executed job, and /v1/stats deltas.
type fleetTrace struct {
	rec       *recorder
	pred      predictor.Predictor
	replayEv  search.Evaluator
	rt        runtimeMeter
	before    shard.RouterStats
	loopStart time.Time

	queueMS, execMS          []float64 // per shard-executed job or leg
	jobMS, repeatMS, sweepMS []float64 // client latency per class
	routerMS, gatherMS       []float64
	execTime                 time.Duration
	cands, pruned            int
}

// observe records one completed op: its client latency, the shard residence
// of every job it ran (fetching sweep legs' records through the router), and
// a replay of each of those searches, which must render exactly the routed
// canonical record.
func (t *fleetTrace) observe(ctx context.Context, f *fleet, out *outcome, i int, o op, root int,
	lat time.Duration, j service.Job, sw service.SweepResult) error {

	var legs []service.Job
	switch o.Class {
	case classSweep:
		t.sweepMS = append(t.sweepMS, ms(lat))
		for _, ref := range sw.Jobs {
			if ref.Shard == "cache" {
				continue // folded in from the router's result cache
			}
			leg, err := f.c.Job(ctx, ref.JobID)
			if err != nil {
				return err
			}
			legs = append(legs, leg)
		}
	case classRepeat:
		t.repeatMS = append(t.repeatMS, ms(lat))
	default:
		t.jobMS = append(t.jobMS, ms(lat))
	}
	if o.Class != classSweep && !strings.HasPrefix(j.ID, "cache/") {
		legs = append(legs, j)
	}
	var slowest time.Duration
	for _, leg := range legs {
		t.rec.add("service.queue", i, root, leg.SubmittedAt, leg.StartedAt)
		t.rec.add("service.exec", i, root, leg.StartedAt, leg.FinishedAt)
		t.queueMS = append(t.queueMS, ms(leg.StartedAt.Sub(leg.SubmittedAt)))
		t.execMS = append(t.execMS, ms(leg.FinishedAt.Sub(leg.StartedAt)))
		t.execTime += leg.FinishedAt.Sub(leg.StartedAt)
		slowest = max(slowest, leg.FinishedAt.Sub(leg.SubmittedAt))
		t.cands += leg.Result.Explored
		t.pruned += leg.Result.Pruned
	}
	switch {
	case o.Class == classSweep:
		t.gatherMS = append(t.gatherMS, ms(lat-slowest))
	case len(legs) > 0:
		t.routerMS = append(t.routerMS, ms(lat-slowest))
	}

	rp := &replayer{rec: t.rec, op: i, ev: t.replayEv}
	rp.parent = t.rec.begin("replay", i, root)
	defer t.rec.end(rp.parent)
	for _, leg := range legs {
		p, err := resolve(leg.Request, t.pred)
		if err != nil {
			return err
		}
		got, err := rp.search(p.archs[0], p.spec, p.work, p.pred, p.opts)
		if err != nil || renderArch(p.archs[0], got) != leg.Result.Canonical {
			out.fail("op %d: replay of %s differs from the routed record (err %v)", i, leg.ID, err)
			out.failed++
			break
		}
	}
	return nil
}

// finish turns the traced fleet run into the per-layer metrics and writes
// the spans out.
func (t *fleetTrace) finish(ctx context.Context, f *fleet, out *outcome, rc runConfig, ops int) error {
	loop := time.Since(t.loopStart)
	after, err := f.stats(ctx)
	if err != nil {
		return err
	}
	b := t.before
	d := func(x, y uint64) float64 { return float64(x - y) }
	v := layerValues(t.rec, ops, t.execTime, loop)
	t.rt.values(v, ops)
	v["sched.candidates_per_op"] = float64(t.cands) / float64(ops)
	v["sched.pruned_per_op"] = float64(t.pruned) / float64(ops)
	// In-process shards share one candidate memo and one evaluation cache,
	// so the fleet sums count each twice; the ratios are unaffected.
	ch, cm := d(after.CandidateCache.Hits, b.CandidateCache.Hits), d(after.CandidateCache.Misses, b.CandidateCache.Misses)
	eh, em := d(after.EvalCache.Hits, b.EvalCache.Hits), d(after.EvalCache.Misses, b.EvalCache.Misses)
	v["sched.candidate_cache.hit_ratio"] = ratio(ch, ch+cm)
	v["search.eval_cache.hit_ratio"] = ratio(eh, eh+em)
	v["service.queue_wait_ms_p50"] = median(t.queueMS)
	v["service.queue_wait_ms_tail"] = tailValue(t.queueMS)
	v["service.exec_ms_p50"] = median(t.execMS)
	sub, coal := d(after.JobsSubmitted, b.JobsSubmitted), d(after.JobsCoalesced, b.JobsCoalesced)
	v["service.dedup_ratio"] = ratio(coal, sub+coal)
	v["service.jobs_failed"] = d(after.JobsFailed, b.JobsFailed)
	v["shard.job_ms_p50"] = median(t.jobMS)
	v["shard.repeat_ms_p50"] = median(t.repeatMS)
	v["shard.sweep_ms_p50"] = median(t.sweepMS)
	v["shard.router_ms_p50"] = median(t.routerMS)
	v["shard.sweep_gather_ms_p50"] = median(t.gatherMS)
	rh, rm := d(after.ResultCache.Hits, b.ResultCache.Hits), d(after.ResultCache.Misses, b.ResultCache.Misses)
	v["shard.result_cache.hit_ratio"] = ratio(rh, rh+rm)
	v["shard.jobs_routed_per_op"] = d(after.Router.JobsRouted, b.Router.JobsRouted) / float64(ops)
	v["shard.route_errors"] = d(after.Router.RouteErrors, b.Router.RouteErrors)
	out.metrics = perLayer(v)
	return t.rec.write(spanFile(rc))
}
