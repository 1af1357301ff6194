// Architecture DSE example: enumerate wafer candidates under the physical
// area and IO constraints, co-explore training strategies for each, and
// report how the compute/memory/communication trade-off (Fig 4) shapes the
// winner for a 70B-parameter training run.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/units"
)

func main() {
	workers := cliutil.WorkersFlag()
	flag.Parse()

	spec := model.Llama3_70B()
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 4096}

	// Enumerate architectures: both compute dies, one to six DRAM chiplets
	// per die, all under the wafer-area budget.
	candidates := hw.Enumerate(hw.EnumeratorOptions{
		HBMPerDie: []int{2, 3, 4, 5, 6},
	})
	fmt.Printf("enumerator produced %d feasible wafer candidates\n\n", len(candidates))

	// The architecture sweep fans its candidates out over -workers
	// goroutines; every candidate's strategy evaluations are memoized in
	// the process cache.
	watos := core.New()
	watos.Options.Workers = *workers
	res, err := watos.Explore(candidates, spec, work)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-28s %5s %9s %9s %9s %12s\n",
		"candidate", "dies", "GB/die", "D2D TB/s", "TFLOPS", "thpt TFLOP/s")
	for _, ar := range res.PerArch {
		if ar.Err != nil || ar.Result == nil {
			fmt.Printf("%-28s infeasible\n", ar.Wafer.Name)
			continue
		}
		b := ar.Result.Best
		fmt.Printf("%-28s %5d %9.0f %9.1f %9.0f %12.1f\n",
			ar.Wafer.Name, ar.Wafer.Dies(),
			ar.Wafer.DieDRAM()/units.GB,
			ar.Wafer.LinkBandwidth()/units.TB,
			ar.Wafer.PeakFLOPS()/units.TFLOPS,
			b.Report.Throughput/units.TFLOPS)
	}
	fmt.Printf("\nwinner: %s\n", res.Best.Wafer)
	fmt.Println("insight: moderate per-die DRAM balances compute, memory and D2D bandwidth (paper §V-B)")
}
