// Package core is the WATOS framework facade (Fig 9): it takes architecture
// parameter candidates, an LLM model configuration and a training workload,
// enumerates the candidates, drives the co-exploration engine (central
// scheduler → recomputation scheduler → memory scheduler → global optimizer
// → execution engines) for each, evaluates the resulting strategies, and
// returns the best wafer architecture together with its mapping scheme and
// performance report.
package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search/pool"
)

// Framework is a configured WATOS instance.
type Framework struct {
	// Predictor estimates operator cost; the default is the tile-level
	// model wrapped in the offline lookup table of §IV-F.
	Predictor predictor.Predictor
	// Options tune the co-exploration engine; the zero value enables the
	// full WATOS stack (GCMR + memory scheduler), without the GA (enable
	// via Options.UseGA).
	Options sched.Options
}

// New returns a WATOS framework with the default predictor stack.
func New() *Framework {
	return &Framework{
		Predictor: predictor.NewLookupTable(predictor.TileLevel{}),
		Options:   sched.Options{UseGA: true},
	}
}

// ArchResult records one architecture candidate's outcome.
type ArchResult struct {
	Wafer  hw.WaferConfig
	Result *sched.Result
	Err    error
}

// ExploreResult is the framework output: the best architecture, its
// training strategy, and the full exploration record.
type ExploreResult struct {
	// Best is the winning architecture candidate.
	Best ArchResult
	// PerArch lists every candidate in input order.
	PerArch []ArchResult
}

// Explore runs the full co-exploration over the architecture candidates for
// one model and workload, returning the candidate with the highest training
// throughput (useful FLOP/s).
func (f *Framework) Explore(candidates []hw.WaferConfig, spec model.Spec, work model.Workload) (*ExploreResult, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no architecture candidates")
	}
	if f.Predictor == nil {
		f.Predictor = predictor.NewLookupTable(predictor.TileLevel{})
	}
	out := &ExploreResult{}
	// Architecture candidates are independent whole searches: fan them out
	// with pool.Map. Each inner sched.Search runs its own candidate loop
	// sequentially (Workers=1) so one level runs concurrently; a lone
	// architecture hands Workers to its search's candidate fan-out instead.
	// Results are collected in input order so the winner (first
	// strictly-best candidate) matches a sequential sweep exactly.
	inner := f.Options
	if len(candidates) > 1 {
		inner.Workers = 1
	}
	out.PerArch = pool.Map(f.Options.Workers, len(candidates), func(i int) ArchResult {
		w := candidates[i]
		if err := w.Validate(); err != nil {
			return ArchResult{Wafer: w, Err: err}
		}
		res, err := sched.Search(w, spec, work, f.Predictor, inner)
		return ArchResult{Wafer: w, Result: res, Err: err}
	})
	var bestThroughput float64
	for _, ar := range out.PerArch {
		if ar.Err == nil && ar.Result != nil && ar.Result.Best != nil &&
			ar.Result.Best.Report.Throughput > bestThroughput {
			bestThroughput = ar.Result.Best.Report.Throughput
			out.Best = ar
		}
	}
	if out.Best.Result == nil {
		return nil, fmt.Errorf("core: no feasible architecture for %s", spec.Name)
	}
	return out, nil
}

// SearchStrategy runs the co-exploration engine for a single fixed
// architecture, returning the best training strategy.
func (f *Framework) SearchStrategy(w hw.WaferConfig, spec model.Spec, work model.Workload) (*sched.Result, error) {
	if f.Predictor == nil {
		f.Predictor = predictor.NewLookupTable(predictor.TileLevel{})
	}
	return sched.Search(w, spec, work, f.Predictor, f.Options)
}
