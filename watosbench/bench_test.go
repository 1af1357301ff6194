package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search"
)

var workloads = []string{"search-cold", "sweep-ga", "fleet-mixed"}

func TestOpListIsASeedFunction(t *testing.T) {
	for _, w := range workloads {
		n := opCount(w, defaultSeconds)
		a, err := genOps(w, 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genOps(w, 7, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op lists", w)
		}
		c, _ := genOps(w, 8, n)
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w)
		}
		if len(a.Ops) != len(c.Ops) || !reflect.DeepEqual(a.classCounts(), c.classCounts()) {
			t.Errorf("%s: op count per class depends on the seed: %v vs %v", w, a.classCounts(), c.classCounts())
		}
	}
}

func TestOpListsCoverEveryModelAndArchitecture(t *testing.T) {
	for _, w := range workloads {
		l, _ := genOps(w, 3, opCount(w, defaultSeconds))
		models, archs := map[string]bool{}, map[string]bool{}
		for _, o := range l.Ops {
			models[o.Req.Model] = true
			archs[o.Req.Config] = true
		}
		if len(models) != len(benchModels) {
			t.Errorf("%s: %d of %d models used", w, len(models), len(benchModels))
		}
		if w != "sweep-ga" && len(archs) < len(singleArchs) {
			t.Errorf("%s: %d architectures used, want all %d", w, len(archs), len(singleArchs))
		}
	}
}

func TestFleetOpsAreWellFormed(t *testing.T) {
	l, _ := genOps("fleet-mixed", 5, opCount("fleet-mixed", defaultSeconds))
	if l.Ops[0].Class != classJob {
		t.Fatalf("op 0 is a %s, want a job", l.Ops[0].Class)
	}
	seen := map[string]bool{}
	for i, o := range l.Ops {
		fp := o.Req.Fingerprint()
		switch o.Class {
		case classRepeat:
			if o.Of >= i || l.Ops[o.Of].Class != classJob || l.Ops[o.Of].Req != o.Req {
				t.Errorf("op %d repeats op %d, which is not an earlier job with its request", i, o.Of)
			}
		default:
			if seen[fp] {
				t.Errorf("op %d (%s) reuses fingerprint %s", i, o.Class, fp)
			}
			seen[fp] = true
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		return xs
	}
	for _, tc := range []struct{ n, pct int }{{1000, 99}, {480, 97}, {200, 95}, {100, 90}, {48, 79}} {
		pct, v, beyondN := tail(sample(tc.n))
		if pct != tc.pct {
			t.Errorf("n=%d: tail percentile %d, want %d", tc.n, pct, tc.pct)
		}
		if beyondN < tailSamples {
			t.Errorf("n=%d: %d samples beyond p%d, want >= %d", tc.n, beyondN, pct, tailSamples)
		}
		if pct < 99 {
			s := sorted(sample(tc.n))
			if next := nearestRank(s, float64(pct+1)); beyond(s, next) >= tailSamples {
				t.Errorf("n=%d: p%d also has %d samples beyond", tc.n, pct+1, beyond(s, next))
			}
		}
		if want := float64(tc.n - beyondN); v != want {
			t.Errorf("n=%d: tail value %v, want %v", tc.n, v, want)
		}
	}
	// Ties at the percentile value are not beyond it.
	xs := append(make([]float64, 15), 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	if pct, _, n := tail(xs); pct != 60 || n != 10 {
		t.Errorf("tied sample: p%d with %d beyond, want p60 with 10", pct, n)
	}
}

// A call the host slowed does not move the tail: each op is valued at the
// median of its repeat group, while a slower op moves its whole group.
func TestTailValuesRepeatedOpsAtTheirMedian(t *testing.T) {
	l, _ := genOps("search-cold", 4, opCount("search-cold", defaultSeconds))
	keys := l.keys()
	groups := map[string]int{}
	for _, k := range keys {
		groups[k]++
	}
	if len(groups) != len(l.Points) {
		t.Fatalf("%d repeat groups for %d distinct points", len(groups), len(l.Points))
	}
	lat := make([]float64, len(l.Ops))
	for i, o := range l.Ops {
		lat[i] = float64(10 + o.Point)
	}
	want := tailValue(groupMedians(lat, keys))
	for i := range lat[:20] {
		lat[i] *= 20 // the first round's first 20 calls, each of another point, slowed
	}
	if got := tailValue(groupMedians(lat, keys)); got != want {
		t.Errorf("slowed calls moved the tail from %v to %v", want, got)
	}
	if tailValue(lat) == want {
		t.Errorf("the per-call tail did not see the slowed calls; the test proves nothing")
	}
	valued := groupMedians(lat, keys)
	for i := range lat {
		if valued[i] >= want {
			lat[i] *= 2 // the slowest ops, every call of them, twice as slow
		}
	}
	if got := tailValue(groupMedians(lat, keys)); got != 2*want {
		t.Errorf("slower ops moved the tail from %v to %v, want %v", want, got, 2*want)
	}

	f, _ := genOps("fleet-mixed", 4, opCount("fleet-mixed", defaultSeconds))
	fk := f.keys()
	for i, o := range f.Ops {
		if o.Class == classRepeat && fk[i] == fk[o.Of] {
			t.Fatalf("op %d: a repeat shares its job's group", i)
		}
	}
}

// Rule 4: ordered by latency (repeats, jobs, sweeps), the default fleet
// shares put the class boundaries at least 10 percentile points away from
// p50 and from the tail percentile of a default-length run.
func TestFleetClassBoundariesAvoidP50AndTail(t *testing.T) {
	l, _ := genOps("fleet-mixed", 1, opCount("fleet-mixed", defaultSeconds))
	c := l.classCounts()
	n := float64(len(l.Ops))
	boundaries := []float64{100 * float64(c[classRepeat]) / n, 100 * float64(c[classRepeat]+c[classJob]) / n}
	xs := make([]float64, len(l.Ops))
	for i := range xs {
		xs[i] = float64(i)
	}
	pct, _, _ := tail(xs)
	for _, b := range boundaries {
		for _, p := range []float64{50, float64(pct)} {
			if math.Abs(b-p) < 10 {
				t.Errorf("class boundary at p%.1f is within 10 points of p%.0f", b, p)
			}
		}
	}
}

// The traced replay must reproduce sched.Search bit for bit on one small
// point with memory pressure, so placement optimisation, DRAM allocation
// and, with the GA on, the global optimizer all run, and report spans for
// the layers it called.
func TestReplayMatchesSearch(t *testing.T) {
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	spec, _ := model.ByName("Gshard-137B")
	work := model.Workload{GlobalBatch: 32, MicroBatch: 1, SeqLen: 4096}
	w := hw.Config1()
	for _, useGA := range []bool{false, true} {
		opts := sched.Options{Seed: 11, Workers: 1, UseGA: useGA}
		resetMemo()
		res, err := sched.Search(w, spec, work, pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		rp := &replayer{rec: rec, ev: search.New(true), parent: -1}
		got, err := rp.search(w, spec, work, pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameCandidates(res.Explored, got); diff != "" {
			t.Fatalf("ga=%v: %s", useGA, diff)
		}
		if renderArch(w, got) != "arch="+w.Name+" err=<nil>\n"+res.Canonical() {
			t.Fatalf("ga=%v: rendered replay differs from the search's canonical record", useGA)
		}
		tot := rec.totals()
		want := []string{"mesh.new", "opgraph.build", "recompute.build_options", "recompute.gcmr",
			"placement.optimize", "memalloc.allocate", "sim.evaluate"}
		if useGA {
			want = append(want, "ga.optimize")
		} else if tot["ga.optimize"].calls != 0 {
			t.Errorf("ga.optimize spans without the GA")
		}
		for _, name := range want {
			if tot[name].calls == 0 {
				t.Errorf("ga=%v: no %s span recorded", useGA, name)
			}
		}
		if tot["sim.evaluate"].calls != len(res.Explored)-res.PrunedCount {
			t.Errorf("ga=%v: %d sim.evaluate spans for %d unpruned candidates", useGA, tot["sim.evaluate"].calls, len(res.Explored)-res.PrunedCount)
		}
	}
}

func TestReplayRefusesUnmirroredOptions(t *testing.T) {
	rp := &replayer{rec: newRecorder(), ev: search.New(true), parent: -1}
	spec, _ := model.ByName("Mamba-2.8B")
	_, err := rp.search(hw.Config4(), spec, model.DefaultWorkload(spec), predictor.TileLevel{}, sched.Options{NaiveRecompute: true})
	if err == nil || !strings.Contains(err.Error(), "outside the benchmark's paths") {
		t.Fatalf("err = %v, want a refusal", err)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past its parent
	}}
	tot := r.totals()
	if got := tot["op"].self; got != 100-50-10 {
		t.Errorf("op self time %v, want 40", got)
	}
	if tot["a"].self != 30 || tot["b"].calls != 1 {
		t.Errorf("leaf totals %+v %+v", tot["a"], tot["b"])
	}
}

func TestRequestsNormalize(t *testing.T) {
	for _, w := range workloads {
		l, _ := genOps(w, 9, opCount(w, defaultSeconds))
		for _, p := range l.Points {
			if _, err := p.Normalize(); err != nil {
				t.Errorf("%s: %v", w, err)
			}
			if p.Seed == 0 {
				t.Errorf("%s: seed 0 is reserved for the fleet warm-up", w)
			}
		}
	}
}
