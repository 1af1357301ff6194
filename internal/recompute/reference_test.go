package recompute

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/opgraph"
)

// referenceGCMR is GCMR as it stood before the crossing search: the same
// validation, pairing and error text, with the DP rescanning every option
// of a stage for every budget cell. It assumes nothing about option order.
func referenceGCMR(profiles []StageProfile) (*Plan, error) {
	p := len(profiles)
	if p == 0 {
		return nil, fmt.Errorf("recompute: no stages")
	}
	var totalBudget float64
	for s, prof := range profiles {
		if len(prof.Options) == 0 {
			return nil, fmt.Errorf("recompute: stage %d has no options", s)
		}
		totalBudget += prof.LocalCheckpointCapacity()
	}
	// Feasibility: even maximal recomputation must fit the global budget.
	var minNeed float64
	for _, prof := range profiles {
		minOpt := prof.Options[len(prof.Options)-1]
		minNeed += minOpt.CkptBytesPerMB * float64(prof.Retained)
	}
	if minNeed > totalBudget {
		return nil, fmt.Errorf("recompute: OOM — minimal checkpoints need %.1f GB but wafer provides %.1f GB",
			minNeed/1e9, totalBudget/1e9)
	}

	quantum := totalBudget / budgetQuanta
	if quantum <= 0 {
		return nil, fmt.Errorf("recompute: no checkpoint budget")
	}
	need := func(o Option, prof StageProfile) int {
		return int(math.Ceil(o.CkptBytesPerMB * float64(prof.Retained) / quantum))
	}
	stageTime := func(prof StageProfile, o Option) float64 {
		return prof.FwdTime + prof.BwdTime + o.ExtraBwdTime
	}

	// DP from the last stage backwards (Alg 2 lines 2–5):
	// T[t][m] = minimal achievable bottleneck time for stages t..p−1 given
	// m quanta of budget.
	const inf = math.MaxFloat64
	T := make([][]float64, p+1)
	choice := make([][]int, p)
	for t := range T {
		T[t] = make([]float64, budgetQuanta+1)
	}
	for m := 0; m <= budgetQuanta; m++ {
		T[p][m] = 0
	}
	for t := p - 1; t >= 0; t-- {
		choice[t] = make([]int, budgetQuanta+1)
		for m := 0; m <= budgetQuanta; m++ {
			best := inf
			bestOpt := -1
			for oi, o := range profiles[t].Options {
				q := need(o, profiles[t])
				if q > m {
					continue
				}
				tail := T[t+1][m-q]
				if tail >= inf {
					continue
				}
				tmax := math.Max(tail, stageTime(profiles[t], o))
				// Tie-break toward less recomputation (options are
				// sorted by descending memory, ascending time).
				if tmax < best {
					best = tmax
					bestOpt = oi
				}
			}
			T[t][m] = best
			choice[t][m] = bestOpt
		}
	}
	if T[0][budgetQuanta] >= inf {
		return nil, fmt.Errorf("recompute: no feasible recomputation plan")
	}

	// Extract the per-stage choices (Alg 2 lines 6–8).
	plan := &Plan{
		Choice:         make([]int, p),
		StageCkptBytes: make([]float64, p),
		ExtraBwd:       make([]float64, p),
		MaxStageTime:   T[0][budgetQuanta],
	}
	m := budgetQuanta
	for t := 0; t < p; t++ {
		oi := choice[t][m]
		if oi < 0 {
			return nil, fmt.Errorf("recompute: extraction failed at stage %d", t)
		}
		o := profiles[t].Options[oi]
		plan.Choice[t] = oi
		plan.StageCkptBytes[t] = o.CkptBytesPerMB * float64(profiles[t].Retained)
		plan.ExtraBwd[t] = o.ExtraBwdTime
		m -= need(o, profiles[t])
	}

	// Sender/Helper identification and pairing (Alg 2 lines 9–14).
	type pressure struct {
		stage int
		delta float64 // positive = overflow, negative = spare
	}
	var senders, helpers []pressure
	for t := 0; t < p; t++ {
		delta := plan.StageCkptBytes[t] - profiles[t].LocalCheckpointCapacity()
		if delta > 1e-6 {
			senders = append(senders, pressure{t, delta})
			plan.Senders = append(plan.Senders, t)
		} else {
			helpers = append(helpers, pressure{t, delta})
			plan.Helpers = append(plan.Helpers, t)
		}
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].delta > senders[j].delta })
	sort.Slice(helpers, func(i, j int) bool { return helpers[i].delta < helpers[j].delta }) // most spare first
	hi := 0
	for _, s := range senders {
		remaining := s.delta
		for remaining > 1e-6 && hi < len(helpers) {
			spare := -helpers[hi].delta
			if spare <= 1e-6 {
				hi++
				continue
			}
			take := math.Min(spare, remaining)
			plan.Pairs = append(plan.Pairs, MemPair{Sender: s.stage, Helper: helpers[hi].stage, Bytes: take})
			plan.OverflowBytes += take
			helpers[hi].delta += take
			remaining -= take
			if -helpers[hi].delta <= 1e-6 {
				hi++
			}
		}
		if remaining > 1e-6 {
			return nil, fmt.Errorf("recompute: sender %d overflow %.1f GB unplaceable", s.stage, remaining/1e9)
		}
	}
	return plan, nil
}

// referenceBuildOptions is BuildOptions as it stood before pricing each
// operator once: every subset walks the operators, calls cost for each
// recomputed one and stops at the first non-recomputable one; the front is
// cut by referenceParetoFront.
func referenceBuildOptions(g *opgraph.LayerGraph, cost func(opgraph.Op) OpCost, layers int) ([]Option, error) {
	ops := g.Ops
	if len(ops) > 16 {
		return nil, fmt.Errorf("recompute: too many operators (%d) for subset enumeration", len(ops))
	}
	if layers <= 0 {
		return nil, fmt.Errorf("recompute: stage has no layers")
	}
	boundary := g.BoundaryBytes()
	var raw []Option
	for mask := 0; mask < 1<<len(ops); mask++ {
		valid := true
		var ckpt, extra float64
		for i, op := range ops {
			if mask&(1<<i) != 0 {
				if !op.Recomputable {
					valid = false
					break
				}
				c := cost(op)
				extra += c.Latency + c.CommTime
			} else {
				ckpt += op.CheckpointBytes
			}
		}
		if !valid {
			continue
		}
		raw = append(raw, Option{
			CkptBytesPerMB: (ckpt + boundary) * float64(layers),
			ExtraBwdTime:   extra * float64(layers),
		})
	}
	front := referenceParetoFront(raw)
	if len(front) == 0 {
		return nil, fmt.Errorf("recompute: empty pareto frontier")
	}
	return front, nil
}

// referenceParetoFront is ParetoFront as it stood with sort.Slice.
func referenceParetoFront(opts []Option) []Option {
	sorted := append([]Option(nil), opts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].CkptBytesPerMB != sorted[j].CkptBytesPerMB {
			return sorted[i].CkptBytesPerMB < sorted[j].CkptBytesPerMB
		}
		return sorted[i].ExtraBwdTime < sorted[j].ExtraBwdTime
	})
	var asc []Option
	bestTime := math.Inf(1)
	for _, o := range sorted {
		if o.ExtraBwdTime < bestTime {
			asc = append(asc, o)
			bestTime = o.ExtraBwdTime
		}
	}
	out := make([]Option, len(asc))
	for i, o := range asc {
		out[len(asc)-1-i] = o
	}
	return out
}
