// Command watosbench is the repository's end-to-end benchmark. Each
// workload is a closed loop driven by one client with one evaluation worker
// per job, over a fixed, seed-derived op list:
//
//   - search-cold: one cold single-architecture sched.Search per op;
//   - sweep-ga: one Table II co-exploration with the GA per op;
//   - fleet-mixed: cold jobs, repeats and Table II sweeps through an
//     in-process watos-router over two watosd shards on loopback HTTP.
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) runs the same ops, records spans around the calls into each
// layer, and prints the per-layer metrics. Either way the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 360, "failed": 0, "metrics": {...}}
//
// Output checks run outside the timed region; a failed check counts
// against goodput_frac and makes the command exit 1. See README.md for the
// workloads, the metric definitions and the steadiness rules.
//
// Usage (from the repository root):
//
//	bash watosbench/run.sh --workload search-cold --seed 1 --seconds 15 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the run length BENCHMARK.json asks for.
const defaultSeconds = 15

// setupRepeats is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once.
const setupRepeats = 3

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// record carries the run's context (printed before the result line).
	record map[string]any
	// failures describes failed ops and checks, one line each.
	failures []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

func main() {
	var rc runConfig
	var traceFlag int
	flag.StringVar(&rc.workload, "workload", "", "search-cold, sweep-ga or fleet-mixed")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed: the same seed gives the same op list")
	flag.IntVar(&rc.seconds, "seconds", defaultSeconds, "run length; fixes the op count at the workload's nominal rate")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&rc.outDir, "out", ".bench_out", "directory the traced run writes its spans to")
	flag.Parse()
	rc.trace = traceFlag == 1
	if rc.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "watosbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}

	var out *outcome
	var err error
	switch rc.workload {
	case "search-cold", "sweep-ga":
		out, err = runSearch(rc)
	case "fleet-mixed":
		out, err = runFleet(rc)
	default:
		err = fmt.Errorf("unknown workload %q (want search-cold, sweep-ga or fleet-mixed)", rc.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "watosbench:", err)
		os.Exit(1)
	}

	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "watosbench: check failed:", f)
	}
	out.record["workload"] = rc.workload
	out.record["seed"] = rc.seed
	out.record["seconds"] = rc.seconds
	out.record["trace"] = traceFlag
	for k, v := range hostRecord() {
		out.record[k] = v
	}
	// Maps of strings and numbers always marshal.
	rec, _ := json.Marshal(map[string]any{"run": out.record})
	fmt.Println(string(rec))

	correct := out.failed == 0 && len(out.failures) == 0
	res, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, out.metrics})
	fmt.Println(string(res))
	if !correct {
		os.Exit(1)
	}
}

// endSamples is how many of the run's last between-op resident-set
// readings rss_mb_end takes the median of: the last tenth, at least 10.
func endSamples(n int) int { return min(n, max(10, n/10)) }

// endToEnd assembles the seven end-to-end metrics of an untraced run from
// its clock and each op's repeat group (opList.keys). Host times are CPU
// time scaled to the nominal host (see clock and hostSpeed); the raw
// readings, wall time, the tail percentile's choice and the two half-run
// medians go in the run record.
func endToEnd(out *outcome, host *hostSpeed, clk *clock, keys []string, completed int, pflops []float64) {
	scale := host.scale()
	cpu, wall := toMS(clk.cpu), toMS(clk.wall)
	setupS := make([]float64, len(clk.setupCPU))
	for i, d := range clk.setupCPU {
		setupS[i] = d.Seconds()
	}
	pct, tailMS, tailN := tail(groupMedians(cpu, keys))
	out.metrics = map[string]metric{
		"setup_s":             {median(setupS) * scale, "s"},
		"ops_per_cpu_s":       {ratio(float64(completed), sum(cpu)/1000) / scale, "1/s"},
		"op_cpu_ms_p50":       {median(cpu) * scale, "ms"},
		"op_cpu_ms_tail":      {tailMS * scale, "ms"},
		"rss_mb_end":          {median(clk.rss[len(clk.rss)-endSamples(len(clk.rss)):]), "MiB"},
		"best_pflops_geomean": {geomean(pflops), "PFLOP/s"},
		"goodput_frac":        {ratio(float64(out.attempted-out.failed), float64(out.attempted)), "fraction"},
	}
	half := len(cpu) / 2
	wallSetup := make([]float64, len(clk.setupWall))
	for i, d := range clk.setupWall {
		wallSetup[i] = d.Seconds()
	}
	for k, v := range map[string]any{
		"host_ref_ms_p50":          median(host.samples),
		"host_scale":               scale,
		"host_steal_frac":          clk.stealFrac(),
		"raw_setup_s_each":         setupS,
		"raw_ops_per_cpu_s":        ratio(float64(completed), sum(cpu)/1000),
		"raw_op_cpu_ms_p50":        median(cpu),
		"raw_op_cpu_ms_tail":       tailMS,
		"raw_op_cpu_ms_tail_calls": tailValue(cpu),
		"tail_percentile":          pct,
		"tail_samples_beyond":      tailN,
		"first_half_p50_ms":        median(cpu[:half]),
		"second_half_p50_ms":       median(cpu[half:]),
		"wall_setup_s_each":        wallSetup,
		"wall_ops_per_s":           ratio(float64(completed), sum(wall)/1000),
		"wall_op_ms_p50":           median(wall),
		"wall_op_ms_tail":          tailValue(groupMedians(wall, keys)),
		"rss_mb_max":               slices.Max(clk.rss),
		"vmhwm_mb":                 procStatusMiB("VmHWM"),
	} {
		out.record[k] = v
	}
}

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// hostRecord describes the host the run measured.
func hostRecord() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusMiB reads a memory field of /proc/self/status (VmRSS, VmHWM)
// in MiB, 0 if it cannot.
func procStatusMiB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// spanFile names the traced run's span dump.
func spanFile(rc runConfig) string {
	return filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-seed%d.tsv", rc.workload, rc.seed))
}
