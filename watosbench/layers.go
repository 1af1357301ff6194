package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// layerMetrics lists every per-layer metric a traced run prints, with its
// unit. A workload on which a layer does no work reports 0, so a "no
// change" prediction can be checked.
var layerMetrics = []struct{ name, unit string }{
	{"recompute.gcmr.ms_per_op", "ms/op"},
	{"recompute.gcmr.calls_per_op", "calls/op"},
	{"recompute.build_options.ms_per_op", "ms/op"},
	{"recompute.build_options.calls_per_op", "calls/op"},
	{"placement.optimize.ms_per_op", "ms/op"},
	{"placement.optimize.calls_per_op", "calls/op"},
	{"ga.optimize.ms_per_op", "ms/op"},
	{"ga.optimize.calls_per_op", "calls/op"},
	{"mesh.new.ms_per_op", "ms/op"},
	{"opgraph.build.ms_per_op", "ms/op"},
	{"memalloc.allocate.ms_per_op", "ms/op"},
	{"sim.evaluate.ms_per_op", "ms/op"},
	{"sim.evaluate.calls_per_op", "calls/op"},
	{"sched.search.ms_per_op", "ms/op"},
	{"sched.candidates_per_op", "cands/op"},
	{"sched.pruned_per_op", "cands/op"},
	{"sched.candidate_cache.hit_ratio", "fraction"},
	{"search.eval_cache.hit_ratio", "fraction"},
	{"runtime.alloc_mb_per_op", "MiB/op"},
	{"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_tail", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.dedup_ratio", "fraction"},
	{"service.jobs_failed", "count"},
	{"shard.job_ms_p50", "ms"},
	{"shard.repeat_ms_p50", "ms"},
	{"shard.sweep_ms_p50", "ms"},
	{"shard.router_ms_p50", "ms"},
	{"shard.sweep_gather_ms_p50", "ms"},
	{"shard.result_cache.hit_ratio", "fraction"},
	{"shard.jobs_routed_per_op", "jobs/op"},
	{"shard.route_errors", "count"},
	{"trace.coverage_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// layerSpans are the replay's spans around calls into the search layers;
// their self time over the search's is trace.coverage_frac.
var layerSpans = []string{
	"mesh.new", "opgraph.build", "recompute.build_options", "recompute.gcmr",
	"placement.serpentine", "placement.optimize", "placement.partition",
	"ga.optimize", "memalloc.from_plan", "memalloc.allocate", "sim.evaluate",
}

// perLayer turns a traced run's values into the full per-layer metric set.
func perLayer(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// layerValues derives the span-based per-layer values: the per-op self time
// and call count of the span each metric names, trace coverage (layer self
// time over searchTime, the time the search itself took) and trace overhead
// (the estimated cost of recording every span over the traced loop's wall
// time).
func layerValues(rec *recorder, ops int, searchTime, loop time.Duration) map[string]float64 {
	tot := rec.totals()
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	v := map[string]float64{"sched.search.ms_per_op": perOp(searchTime)}
	for _, m := range layerMetrics {
		if span, ok := strings.CutSuffix(m.name, ".ms_per_op"); ok && span != "sched.search" {
			v[m.name] = perOp(tot[span].self)
		} else if span, ok := strings.CutSuffix(m.name, ".calls_per_op"); ok {
			v[m.name] = float64(tot[span].calls) / float64(ops)
		}
	}
	var layers time.Duration
	for _, name := range layerSpans {
		layers += tot[name].self
	}
	v["trace.coverage_frac"] = ratio(float64(layers), float64(searchTime))
	v["trace.overhead_frac"] = ratio(float64(spanCost())*float64(len(rec.spans)), float64(loop))
	return v
}

// runtimeMeter measures the Go runtime's allocation and GC work: allocation
// over the bracketed op calls, GC CPU share over the whole traced loop.
type runtimeMeter struct {
	bytes, mallocs uint64
	ms             runtime.MemStats
	cpu0           [3]float64
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() [3]float64 {
	s := make([]metrics.Sample, len(cpuClasses))
	for i, n := range cpuClasses {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		out[i] = s[i].Value.Float64()
	}
	return out
}

func (m *runtimeMeter) startLoop() { m.cpu0 = readCPU() }

// bracket runs fn and adds the bytes and objects it allocated.
func (m *runtimeMeter) bracket(fn func()) {
	runtime.ReadMemStats(&m.ms)
	b, n := m.ms.TotalAlloc, m.ms.Mallocs
	fn()
	runtime.ReadMemStats(&m.ms)
	m.bytes += m.ms.TotalAlloc - b
	m.mallocs += m.ms.Mallocs - n
}

// values reports the runtime metrics per op; call at the end of the loop.
func (m *runtimeMeter) values(v map[string]float64, ops int) {
	c := readCPU()
	v["runtime.alloc_mb_per_op"] = float64(m.bytes) / (1 << 20) / float64(ops)
	v["runtime.allocs_per_op"] = float64(m.mallocs) / float64(ops)
	v["runtime.gc_cpu_frac"] = ratio(c[0]-m.cpu0[0], (c[1]-m.cpu0[1])-(c[2]-m.cpu0[2]))
}
