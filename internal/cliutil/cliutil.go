// Package cliutil collects the flag and lookup boilerplate shared by the
// command-line entry points (cmd/watos, cmd/figures, cmd/watosd, the
// examples) and the evaluation service: the evaluation-runtime flags
// (-workers, -nocache, -remote), model-zoo lookup with a consistent error
// message, sequence-length defaulting, and architecture-restriction
// resolution. Keeping these in one place means a new shared flag (like
// -remote) lands once instead of per command.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"repro/internal/hw"
	"repro/internal/model"
)

// WorkersFlag registers the shared -workers flag on the default flag set.
func WorkersFlag() *int {
	return flag.Int("workers", 0, "whole searches run at once: a search's candidates or a sweep's points (0 = all CPUs, 1 = sequential)")
}

// NoCacheFlag registers the shared -nocache flag on the default flag set.
func NoCacheFlag() *bool {
	return flag.Bool("nocache", false, "disable the strategy-evaluation memoization cache")
}

// RemoteFlag registers the shared -remote flag on the default flag set.
func RemoteFlag() *string {
	return flag.String("remote", "", "delegate the search to a running watosd at this address (host:port)")
}

// AllModels returns the full model zoo in listing order.
func AllModels() []model.Spec {
	return append(append(model.EvaluationModels(), model.EmergingModels()...), model.UltraLargeModels()...)
}

// ListModels writes the -models listing.
func ListModels(w io.Writer) {
	for _, s := range AllModels() {
		fmt.Fprintf(w, "%-24s %6.1fB params  %s\n", s.Name, s.EffectiveParams()/1e9, s.Arch)
	}
}

// Model resolves a model-zoo name with the canonical error message.
func Model(name string) (model.Spec, error) {
	spec, ok := model.ByName(name)
	if !ok {
		return model.Spec{}, fmt.Errorf("unknown model %q (use -models to list)", name)
	}
	return spec, nil
}

// SeqLen resolves the effective sequence length: an explicit value wins, 0
// selects the model default capped at 4096.
func SeqLen(spec model.Spec, seq int) int {
	if seq != 0 {
		return seq
	}
	s := spec.DefaultSeqLen
	if s > 4096 {
		s = 4096
	}
	return s
}

// ArchCandidates resolves an architecture restriction: the empty string
// explores the full Table II sweep, otherwise one named configuration.
func ArchCandidates(config string) ([]hw.WaferConfig, error) {
	switch config {
	case "":
		return hw.TableII(), nil
	case "config1":
		return []hw.WaferConfig{hw.Config1()}, nil
	case "config2":
		return []hw.WaferConfig{hw.Config2()}, nil
	case "config3":
		return []hw.WaferConfig{hw.Config3()}, nil
	case "config4":
		return []hw.WaferConfig{hw.Config4()}, nil
	case "mesh-switch":
		return []hw.WaferConfig{hw.Config3MeshSwitch()}, nil
	default:
		return nil, fmt.Errorf("unknown config %q", config)
	}
}

// SweepConfigs resolves an architecture restriction to the list of
// restriction names it sweeps over, in sweep order: the empty string expands
// to the Table II configurations (derived from hw.TableII so the scattered
// and unscattered sweeps can never cover different architecture sets), a
// named configuration to itself. Each name round-trips through
// ArchCandidates to exactly one candidate, which is what lets a sweep
// scatter into per-architecture requests whose concatenated results are
// identical to the unscattered sweep.
func SweepConfigs(config string) ([]string, error) {
	if config == "" {
		var names []string
		for _, w := range hw.TableII() {
			names = append(names, w.Name)
		}
		return names, nil
	}
	if _, err := ArchCandidates(config); err != nil {
		return nil, err
	}
	return []string{config}, nil
}

// PprofFlag registers the shared -pprof flag on the default flag set.
func PprofFlag() *bool {
	return flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
}

// WithPprof wraps a service handler with the net/http/pprof endpoints when
// enabled. The routes are registered explicitly on a private mux (never on
// http.DefaultServeMux), so profiling is opt-in per process and the
// service's own routing is untouched:
//
//	/debug/pprof/           index (goroutine, heap, allocs, block, mutex, …)
//	/debug/pprof/cmdline    process command line
//	/debug/pprof/profile    30-second CPU profile (?seconds= to adjust)
//	/debug/pprof/symbol     symbol resolution for raw addresses
//	/debug/pprof/trace      execution trace (?seconds= to adjust)
func WithPprof(h http.Handler, enabled bool) http.Handler {
	if !enabled {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
