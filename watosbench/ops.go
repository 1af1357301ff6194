package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/service"
)

// benchModels are the eight zoo models that fit one wafer. Llama3-405B and
// Deepseek-V3-671B are left out: they fail Alg 1's pruning in about 2 ms, so
// they would add failures and no search work.
var benchModels = []string{
	"Llama2-30B", "Llama3-70B", "Gshard-137B", "GPT-175B",
	"GR-24", "SD-3.5-Large", "Mamba-2.8B", "Qwen3-Next-80B-A3B",
}

// singleArchs are the architecture restrictions a single-architecture op
// draws from: the four Table II configurations plus the mesh-switch
// reconfiguration.
var singleArchs = []string{"config1", "config2", "config3", "config4", "mesh-switch"}

// tableII names the legs of a Table II sweep, in sweep order.
var tableII = []string{"config1", "config2", "config3", "config4"}

// batches are the global batch sizes ops draw from.
var batches = []int{32, 48, 64, 96, 128}

// Fleet op-class shares (rule 4 in README.md keeps their boundaries away
// from p50 and the tail percentile).
const (
	shareRepeat = 0.25
	shareSweep  = 0.15
)

// Op classes.
const (
	classSearch  = "search"   // search-cold: one single-architecture sched.Search
	classSweepGA = "sweep-ga" // sweep-ga: one Table II co-exploration with the GA
	classJob     = "job"      // fleet-mixed: a cold routed single-architecture job
	classRepeat  = "repeat"   // fleet-mixed: an earlier job's request again
	classSweep   = "sweep"    // fleet-mixed: a routed Table II sweep
)

// op is one operation of a run.
type op struct {
	Class string
	Req   service.Request
	// Point indexes the op's distinct point in opList.Points; a repeat
	// shares the point of the job it repeats.
	Point int
	// Of is the index of the op a repeat repeats (-1 otherwise).
	Of int
}

// opList is a run's fixed, seed-derived op sequence.
type opList struct {
	Ops []op
	// Points are the distinct requests in first-use order.
	Points []service.Request
}

// classCounts returns the number of ops per class.
func (l opList) classCounts() map[string]int {
	out := map[string]int{}
	for _, o := range l.Ops {
		out[o.Class]++
	}
	return out
}

// keys names each op's repeat group: ops of one class on one distinct
// point. A search-cold point recurs once per round; in fleet-mixed every
// job and sweep is its own group and the repeats of one job form another.
func (l opList) keys() []string {
	out := make([]string, len(l.Ops))
	for i, o := range l.Ops {
		out[i] = fmt.Sprintf("%s/%d", o.Class, o.Point)
	}
	return out
}

// nominalRate is each workload's op rate measured on a 2-vCPU host when the
// benchmark was written. It converts --seconds into a fixed op count, so the
// work of a run (and with it the memory the run holds) never depends on how
// fast the program is.
var nominalRate = map[string]float64{
	"search-cold": 23,
	"sweep-ga":    3.2,
	"fleet-mixed": 20,
}

// opCount converts a run length into the workload's fixed op count.
func opCount(workload string, seconds int) int {
	n := int(math.Round(nominalRate[workload] * float64(seconds)))
	if n < 1 {
		n = 1
	}
	return n
}

// newRand returns the workload's seeded generator; each workload salts the
// seed so two workloads with one seed do not share a stream.
func newRand(workload string, seed int64) *rand.Rand {
	var salt int64
	for _, c := range workload {
		salt = salt*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + salt))
}

// seeds hands out distinct search seeds. Every seed is at least 1, so seed
// 0 is free for the fleet warm-up, which must not touch a timed fingerprint.
type seeds struct {
	rng  *rand.Rand
	used map[int64]bool
}

func (s *seeds) next() int64 {
	for {
		v := s.rng.Int63n(1<<31) + 1
		if !s.used[v] {
			s.used[v] = true
			return v
		}
	}
}

// pairPoints returns one request per (model, architecture) pair. Model k
// meets every batch size once across its five architectures (batch
// (k+a) mod 5 on architecture a), so the mix of models, architectures and
// batches is the same for every seed; the seed draws each point's search
// seed.
func pairPoints(sd *seeds) []service.Request {
	var out []service.Request
	for k, m := range benchModels {
		for a, arch := range singleArchs {
			out = append(out, service.Request{
				Model:  m,
				Config: arch,
				Batch:  batches[(k+a)%len(batches)],
				Seed:   sd.next(),
			})
		}
	}
	return out
}

// rounds orders n ops over the distinct points: whole rounds, each a seeded
// permutation of every point, so a run's op mix does not depend on the
// seed. n is rounded to whole rounds (at least one).
func rounds(rng *rand.Rand, class string, points []service.Request, n int) opList {
	r := int(math.Round(float64(n) / float64(len(points))))
	if r < 1 {
		r = 1
	}
	l := opList{Points: points}
	for i := 0; i < r; i++ {
		for _, p := range rng.Perm(len(points)) {
			l.Ops = append(l.Ops, op{Class: class, Req: points[p], Point: p, Of: -1})
		}
	}
	return l
}

// genOps builds a workload's op list for a seed and op count.
func genOps(workload string, seed int64, n int) (opList, error) {
	rng := newRand(workload, seed)
	sd := &seeds{rng: rng, used: map[int64]bool{}}
	switch workload {
	case "search-cold":
		return rounds(rng, classSearch, pairPoints(sd), n), nil
	case "sweep-ga":
		// One point per model, model k with batch size k mod 5: eight
		// sweeps keep the three set-ups affordable, and every seed runs the
		// same mix.
		var points []service.Request
		for k, m := range benchModels {
			points = append(points, service.Request{Model: m, Batch: batches[k%len(batches)], UseGA: true, Seed: sd.next()})
		}
		return rounds(rng, classSweepGA, points, n), nil
	case "fleet-mixed":
		return genFleet(rng, sd, n), nil
	}
	return opList{}, fmt.Errorf("unknown workload %q", workload)
}

// cycler deals values from seeded permutations of a list, one whole
// permutation at a time, so every value comes up equally often.
type cycler[T any] struct {
	rng  *rand.Rand
	all  []T
	left []T
}

func (c *cycler[T]) next() T {
	if len(c.left) == 0 {
		for _, i := range c.rng.Perm(len(c.all)) {
			c.left = append(c.left, c.all[i])
		}
	}
	v := c.left[0]
	c.left = c.left[1:]
	return v
}

// genFleet mixes cold jobs, repeats and Table II sweeps in fixed counts.
// Op 0 is a job and the other class labels are shuffled. Jobs walk the
// (model, architecture) pairs in seeded rounds, each with a fresh seed, so
// every job is a new fingerprint. A repeat resubmits a uniformly chosen
// earlier job. Every other sweep reuses an earlier Table II job's model,
// batch and seed (each job at most once), so one of its legs is an answer
// the fleet already holds; the others draw a fresh seed.
func genFleet(rng *rand.Rand, sd *seeds, n int) opList {
	nSweep := int(math.Round(shareSweep * float64(n)))
	nRepeat := int(math.Round(shareRepeat * float64(n)))
	nJob := max(n-nSweep-nRepeat, 1)
	var labels []string
	for i := 1; i < nJob; i++ {
		labels = append(labels, classJob)
	}
	for i := 0; i < nRepeat; i++ {
		labels = append(labels, classRepeat)
	}
	for i := 0; i < nSweep; i++ {
		labels = append(labels, classSweep)
	}
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	labels = append([]string{classJob}, labels...)

	var l opList
	var pairs []service.Request
	var jobs, reusable []int
	sweeps := 0
	models := &cycler[string]{rng: rng, all: benchModels}
	sizes := &cycler[int]{rng: rng, all: batches}
	add := func(class string, req service.Request) {
		l.Points = append(l.Points, req)
		l.Ops = append(l.Ops, op{Class: class, Req: req, Point: len(l.Points) - 1, Of: -1})
	}
	for i, class := range labels {
		switch class {
		case classJob:
			if len(pairs) == 0 {
				pairs = pairPoints(sd)
				rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
			}
			add(classJob, pairs[0])
			if pairs[0].Config != "mesh-switch" {
				reusable = append(reusable, i)
			}
			pairs = pairs[1:]
			jobs = append(jobs, i)
		case classRepeat:
			k := jobs[rng.Intn(len(jobs))]
			l.Ops = append(l.Ops, op{Class: classRepeat, Req: l.Ops[k].Req, Point: l.Ops[k].Point, Of: k})
		case classSweep:
			req := service.Request{Model: models.next(), Batch: sizes.next(), Seed: sd.next()}
			if sweeps++; sweeps%2 == 1 && len(reusable) > 0 {
				x := rng.Intn(len(reusable))
				j := l.Ops[reusable[x]].Req
				reusable = append(reusable[:x], reusable[x+1:]...)
				req = service.Request{Model: j.Model, Batch: j.Batch, Seed: j.Seed}
			}
			add(classSweep, req)
		}
	}
	return l
}
