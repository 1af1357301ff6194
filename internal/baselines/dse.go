package baselines

import (
	"fmt"

	"repro/internal/collective"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
	"repro/internal/search/pool"
)

// Framework identifies a DSE comparison framework of Fig 20 / Table I.
type Framework int

const (
	// Timeloop explores die-level mappings only: no inter-die parallelism
	// optimisation, no DRAM-capacity awareness.
	Timeloop Framework = iota
	// DFModel optimises multi-dimensional parallelism for clusters but is
	// memory-unaware (no recomputation, no capacity scheduling).
	DFModel
	// Calculon adds training memory-saving techniques (recomputation) to
	// a cluster-level parallelism search.
	Calculon
	// Hecaton is chiplet-scale with 2D TP over bypass links.
	Hecaton
	// Gemini is chiplet-scale mapping/architecture co-exploration focused
	// on DRAM access (not capacity).
	Gemini
	// PD co-designs physical/logical topology, interconnect-focused.
	PD
	// WSCLLM explores WSC architectures for inference serving; lacks
	// recomputation-aware training optimisation.
	WSCLLM
	// WATOS is the full framework.
	WATOS
)

func (f Framework) String() string {
	switch f {
	case Timeloop:
		return "Timeloop"
	case DFModel:
		return "DFModel"
	case Calculon:
		return "Calculon"
	case Hecaton:
		return "Hecaton"
	case Gemini:
		return "Gemini"
	case PD:
		return "PD"
	case WSCLLM:
		return "WSC-LLM"
	case WATOS:
		return "WATOS"
	default:
		return fmt.Sprintf("Framework(%d)", int(f))
	}
}

// Frameworks lists the Fig 20 comparison order.
func Frameworks() []Framework {
	return []Framework{Timeloop, DFModel, Calculon, Hecaton, Gemini, PD, WSCLLM, WATOS}
}

// options returns the sched restriction reproducing each framework's
// capability subset per Table I.
func (f Framework) options() sched.Options {
	switch f {
	case Timeloop:
		// Die-level mapping only: no parallelism search — the smallest
		// model-parallel footprint with naive local recomputation and no
		// wafer-level scheduling. TP fixed to 1; PP grows only to fit.
		return sched.Options{
			MaxTP:               1,
			NaiveRecompute:      true,
			DisableMemScheduler: true,
		}
	case DFModel:
		// Parallelism search without memory optimisation: configurations
		// that need recomputation are infeasible for it.
		return sched.Options{
			DisableRecompute:    true,
			DisableMemScheduler: true,
		}
	case Calculon:
		// Parallelism search + recomputation, but recomputation is
		// uniform/local (no global balancing) and placement is naive.
		return sched.Options{
			NaiveRecompute:      true,
			DisableMemScheduler: true,
		}
	case Hecaton:
		// Chiplet-style 2D TP (bypass-link collectives) with local
		// recomputation.
		return sched.Options{
			Collectives:         []collective.Algorithm{collective.TwoD},
			NaiveRecompute:      true,
			DisableMemScheduler: true,
		}
	case Gemini:
		// DRAM-access-focused chiplet mapping: good collectives, no
		// capacity-aware scheduling.
		return sched.Options{
			NaiveRecompute:      true,
			DisableMemScheduler: true,
		}
	case PD:
		// Topology co-design: best collective algorithms (TACOS-class),
		// but DRAM scarcity unaddressed.
		return sched.Options{
			Collectives:         []collective.Algorithm{collective.TACOS},
			DisableRecompute:    true,
			DisableMemScheduler: true,
		}
	case WSCLLM:
		// WSC-aware placement and memory allocation, but no
		// recomputation-aware optimisation (inference heritage).
		return sched.Options{
			NaiveRecompute: true,
		}
	case WATOS:
		return sched.Options{UseGA: true}
	default:
		return sched.Options{}
	}
}

// RunFramework evaluates the framework's restricted search on the wafer.
func RunFramework(f Framework, w hw.WaferConfig, spec model.Spec, work model.Workload, pred predictor.Predictor) (*sched.Result, error) {
	return sched.Search(w, spec, work, pred, f.options())
}

// FrameworkResult is one framework's outcome in a comparison sweep.
type FrameworkResult struct {
	Framework Framework
	Result    *sched.Result
	Err       error
}

// RunFrameworks evaluates every framework's restricted search concurrently
// with pool.Map (workers searches at once, 0 = GOMAXPROCS) and returns the
// outcomes in input order. The frameworks are independent whole searches,
// and each runs with Workers: 1 so one level runs concurrently; results are
// identical to running RunFramework in a loop.
func RunFrameworks(fws []Framework, w hw.WaferConfig, spec model.Spec, work model.Workload,
	pred predictor.Predictor, workers int) []FrameworkResult {
	return pool.Map(workers, len(fws), func(i int) FrameworkResult {
		opts := fws[i].options()
		opts.Workers = 1
		res, err := sched.Search(w, spec, work, pred, opts)
		return FrameworkResult{Framework: fws[i], Result: res, Err: err}
	})
}
