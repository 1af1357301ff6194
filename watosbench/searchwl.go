package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/service"
)

// searchPoint is one distinct op of an in-process search workload, resolved
// once so the timed call does nothing but search.
type searchPoint struct {
	archs []hw.WaferConfig
	spec  model.Spec
	work  model.Workload
	opts  sched.Options
	pred  predictor.Predictor
}

func resolve(req service.Request, pred predictor.Predictor) (searchPoint, error) {
	norm, err := req.Normalize()
	if err != nil {
		return searchPoint{}, err
	}
	spec, err := cliutil.Model(norm.Model)
	if err != nil {
		return searchPoint{}, err
	}
	archs, err := cliutil.ArchCandidates(norm.Config)
	if err != nil {
		return searchPoint{}, err
	}
	return searchPoint{
		archs: archs,
		spec:  spec,
		work:  norm.Workload(),
		opts:  sched.Options{UseGA: norm.UseGA, Seed: norm.Seed, Workers: 1},
		pred:  pred,
	}, nil
}

// run is one op: sched.Search on a single architecture, or the framework's
// co-exploration over several.
func (p searchPoint) run() (*core.ExploreResult, error) {
	if len(p.archs) > 1 {
		fw := core.Framework{Predictor: p.pred, Options: p.opts}
		return fw.Explore(p.archs, p.spec, p.work)
	}
	res, err := sched.Search(p.archs[0], p.spec, p.work, p.pred, p.opts)
	if err != nil {
		return nil, err
	}
	ar := core.ArchResult{Wafer: p.archs[0], Result: res}
	return &core.ExploreResult{Best: ar, PerArch: []core.ArchResult{ar}}, nil
}

// digest is the SHA-256 of an op's canonical record.
func digest(canonical string) [32]byte { return sha256.Sum256([]byte(canonical)) }

// bestPFLOPS is the winning strategy's useful throughput in PFLOP/s.
func bestPFLOPS(er *core.ExploreResult) float64 {
	return er.Best.Result.Best.Report.Throughput / 1e15
}

// resetMemo empties the candidate memo and the evaluation cache.
func resetMemo() {
	sched.ResetCache()
	search.DefaultCache().Reset()
}

// searchSetup is the state one set-up leaves behind: a fresh predictor
// whose lookup table the warm-up filled, and each distinct point's record.
type searchSetup struct {
	points  []searchPoint
	records [][32]byte
	pflops  []float64
}

// setupSearch builds the system from scratch — a new predictor, an empty
// collective plan cache — and runs the untimed warm-up: every distinct point
// once, each from empty memo caches, keeping its canonical record for the
// output checks.
func setupSearch(list opList) (*searchSetup, error) {
	collective.ResetPlanCache()
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	st := &searchSetup{}
	for _, req := range list.Points {
		p, err := resolve(req, pred)
		if err != nil {
			return nil, err
		}
		resetMemo()
		er, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", req.Fingerprint(), err)
		}
		st.points = append(st.points, p)
		st.records = append(st.records, digest(service.Canonical(er)))
		st.pflops = append(st.pflops, bestPFLOPS(er))
	}
	resetMemo()
	return st, nil
}

// runSearch drives search-cold or sweep-ga: a closed loop over the op list
// from one client, emptying the memo caches before every op.
func runSearch(rc runConfig) (*outcome, error) {
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
	var st *searchSetup
	for i := 0; i < repeats; i++ {
		if err := clk.setUp(func() (err error) {
			st, err = setupSearch(list)
			return err
		}); err != nil {
			return nil, err
		}
	}

	out := &outcome{attempted: len(list.Ops), record: map[string]any{
		"ops_by_class":    list.classCounts(),
		"distinct_points": len(list.Points),
	}}
	check := func(i int, o op, er *core.ExploreResult, err error) bool {
		switch {
		case err != nil:
			out.fail("op %d (%s): %v", i, o.Req.Fingerprint(), err)
		case digest(service.Canonical(er)) != st.records[o.Point]:
			out.fail("op %d (%s): canonical record differs from its warm-up record", i, o.Req.Fingerprint())
		default:
			return true
		}
		out.failed++
		return false
	}

	runtime.GC()
	if rc.trace {
		return out, traceSearch(rc, list, st, out, check)
	}
	completed := 0
	for i, o := range list.Ops {
		resetMemo()
		host.sample(len(list.Ops))
		var er *core.ExploreResult
		var err error
		clk.op(func() { er, err = st.points[o.Point].run() })
		if err == nil {
			completed++
		}
		check(i, o, er, err)
	}
	endToEnd(out, host, clk, list.keys(), completed, st.pflops)
	return out, nil
}

// traceSearch is the traced run of an in-process search workload: each op
// times the real search, then replays every explored candidate through the
// layers' public functions and requires the replay to match the search bit
// for bit.
func traceSearch(rc runConfig, list opList, st *searchSetup, out *outcome,
	check func(int, op, *core.ExploreResult, error) bool) error {

	rec := newRecorder()
	var rt runtimeMeter
	var searchTime time.Duration
	var cands, pruned int
	var candHits, candMiss, evalHits, evalMiss uint64
	loopStart := time.Now()
	rt.startLoop()
	for i, o := range list.Ops {
		p := st.points[o.Point]
		root := rec.begin("op", i, -1)
		resetMemo()
		var er *core.ExploreResult
		var err error
		rt.bracket(func() {
			id := rec.begin("sched.search", i, root)
			er, err = p.run()
			rec.end(id)
			searchTime += rec.spans[id].end - rec.spans[id].start
		})
		cs, es := sched.CacheStats(), search.DefaultCache().Stats()
		candHits, candMiss = candHits+cs.Hits, candMiss+cs.Misses
		evalHits, evalMiss = evalHits+es.Hits, evalMiss+es.Misses
		if !check(i, o, er, err) {
			rec.end(root)
			continue
		}
		// The replay's evaluations must start from the same empty cache the
		// real search's did.
		search.DefaultCache().Reset()
		rp := &replayer{rec: rec, op: i, ev: search.New(false)}
		rp.parent = rec.begin("replay", i, root)
		matched := true
		for _, ar := range er.PerArch {
			cands += len(ar.Result.Explored)
			pruned += ar.Result.PrunedCount
			got, err := rp.search(ar.Wafer, p.spec, p.work, p.pred, p.opts)
			diff := ""
			if err != nil {
				diff = err.Error()
			} else {
				diff = sameCandidates(ar.Result.Explored, got)
			}
			if diff != "" && matched {
				out.fail("op %d (%s) on %s: replay: %s", i, o.Req.Fingerprint(), ar.Wafer.Name, diff)
				out.failed++
				matched = false
			}
		}
		rec.end(rp.parent)
		rec.end(root)
	}
	loop := time.Since(loopStart)
	ops := len(list.Ops)
	v := layerValues(rec, ops, searchTime, loop)
	rt.values(v, ops)
	v["sched.candidates_per_op"] = float64(cands) / float64(ops)
	v["sched.pruned_per_op"] = float64(pruned) / float64(ops)
	v["sched.candidate_cache.hit_ratio"] = ratio(float64(candHits), float64(candHits+candMiss))
	v["search.eval_cache.hit_ratio"] = ratio(float64(evalHits), float64(evalHits+evalMiss))
	out.metrics = perLayer(v)
	return rec.write(spanFile(rc))
}
