// Package recompute implements the globally coordinated memory-efficient
// recomputation (GCMR) strategy of §IV-B (Alg 2): a dynamic program that
// distributes the wafer's aggregate checkpoint-memory budget across pipeline
// stages so the maximum stage-execution time is minimised, followed by
// Sender/Helper identification for stages whose chosen checkpoint footprint
// exceeds their local DRAM (Mem_pair construction). A naive baseline
// (uniform local-only recomputation, Fig 8a) is provided for ablations.
package recompute

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Option is one point on a stage's recomputation pareto frontier: the
// per-micro-batch checkpoint bytes retained and the extra backward time
// incurred by recomputing the rest.
type Option struct {
	// CkptBytesPerMB is the per-die checkpoint footprint of ONE
	// micro-batch across the whole stage (layers × retained ops +
	// boundary).
	CkptBytesPerMB float64
	// ExtraBwdTime is the added per-micro-batch backward time of the
	// whole stage (recompute execution + collectives of recomputed
	// tensors, Eq 1).
	ExtraBwdTime float64
}

// StageProfile is the recomputation search input for one pipeline stage —
// the output of "RecompProfiling" in Alg 2 line 1.
type StageProfile struct {
	// Options is the pareto frontier sorted by descending CkptBytesPerMB
	// (options[0] = no recomputation).
	Options []Option
	// Retained is the 1F1B activation-retention count of the stage.
	Retained int
	// FwdTime and BwdTime are the per-micro-batch stage times without
	// recomputation.
	FwdTime, BwdTime float64
	// ModelPBytes is the stage's aggregate resident model state across
	// its dies.
	ModelPBytes float64
	// LocalBytes is the stage's aggregate DRAM capacity across its dies.
	LocalBytes float64
}

// LocalCheckpointCapacity returns the stage's DRAM left for checkpoints
// after its modelP.
func (p StageProfile) LocalCheckpointCapacity() float64 {
	c := p.LocalBytes - p.ModelPBytes
	if c < 0 {
		return 0
	}
	return c
}

// CkptBytes returns the stage's checkpoint memory under option i: the
// option's per-micro-batch footprint times the 1F1B retention count.
func (p StageProfile) CkptBytes(i int) float64 {
	return p.Options[i].CkptBytesPerMB * float64(p.Retained)
}

// StageTime returns the stage's per-micro-batch time under option i
// (F + B + the option's extra backward time).
func (p StageProfile) StageTime(i int) float64 {
	return p.FwdTime + p.BwdTime + p.Options[i].ExtraBwdTime
}

// ParetoFront filters and sorts options: dominated options (more memory and
// more time) are dropped; the result is sorted by descending memory.
func ParetoFront(opts []Option) []Option {
	sorted := append([]Option(nil), opts...)
	// Skyline scan: ascending memory; an option survives only if its time
	// beats every option that already uses less memory.
	slices.SortFunc(sorted, func(a, b Option) int {
		if c := cmp.Compare(a.CkptBytesPerMB, b.CkptBytesPerMB); c != 0 {
			return c
		}
		return cmp.Compare(a.ExtraBwdTime, b.ExtraBwdTime)
	})
	var asc []Option
	bestTime := math.Inf(1)
	for _, o := range sorted {
		if o.ExtraBwdTime < bestTime {
			asc = append(asc, o)
			bestTime = o.ExtraBwdTime
		}
	}
	// Return in descending-memory order (options[0] = no recomputation).
	out := make([]Option, len(asc))
	for i, o := range asc {
		out[len(asc)-1-i] = o
	}
	return out
}

// MemPair records an activation-balancing assignment: the Sender stage
// offloads Bytes of checkpoints to the Helper stage's DRAM (on-wafer, not
// off-wafer — §IV-B).
type MemPair struct {
	Sender, Helper int
	Bytes          float64
}

// Plan is a recomputation plan: one option per stage plus the Mem_pair set.
// NewPlan builds every plan (GCMR, Naive and the GA's refinement).
type Plan struct {
	// Choice is the selected option index per stage.
	Choice []int
	// StageCkptBytes is the total checkpoint memory chosen per stage
	// (CkptBytesPerMB × retained).
	StageCkptBytes []float64
	// ExtraBwd is the per-micro-batch extra backward time per stage.
	ExtraBwd []float64
	// MaxStageTime is the bottleneck per-micro-batch stage time
	// (F + B + extra).
	MaxStageTime float64
	// Senders are the stages that ship checkpoints in Pairs and Helpers
	// the rest, both in stage order (Alg 2 lines 9–12).
	Senders, Helpers []int
	// Pairs is the Mem_pair set.
	Pairs []MemPair
	// OverflowBytes is the total checkpoint volume moved between stages.
	OverflowBytes float64
}

// NewPlan assembles the plan of one option per stage (choice) and a Mem_pair
// set: each stage's checkpoint bytes and extra backward time, the
// bottleneck stage time and the volume the pairs move. A choice count that
// differs from the stage count, an out-of-range option or a pair naming no
// stage is an error.
func NewPlan(profiles []StageProfile, choice []int, pairs []MemPair) (*Plan, error) {
	p := len(profiles)
	if len(choice) != p {
		return nil, fmt.Errorf("recompute: %d choices for %d stages", len(choice), p)
	}
	plan := &Plan{
		Choice:         append([]int(nil), choice...),
		StageCkptBytes: make([]float64, p),
		ExtraBwd:       make([]float64, p),
		Pairs:          append([]MemPair(nil), pairs...),
	}
	sends := make([]bool, p)
	for _, pr := range pairs {
		if pr.Sender < 0 || pr.Sender >= p || pr.Helper < 0 || pr.Helper >= p {
			return nil, fmt.Errorf("recompute: pair %d→%d outside %d stages", pr.Sender, pr.Helper, p)
		}
		sends[pr.Sender] = true
		plan.OverflowBytes += pr.Bytes
	}
	for s, oi := range choice {
		prof := &profiles[s]
		if oi < 0 || oi >= len(prof.Options) {
			return nil, fmt.Errorf("recompute: stage %d has no option %d", s, oi)
		}
		plan.StageCkptBytes[s] = prof.CkptBytes(oi)
		plan.ExtraBwd[s] = prof.Options[oi].ExtraBwdTime
		if t := prof.StageTime(oi); t > plan.MaxStageTime {
			plan.MaxStageTime = t
		}
		if sends[s] {
			plan.Senders = append(plan.Senders, s)
		} else {
			plan.Helpers = append(plan.Helpers, s)
		}
	}
	return plan, nil
}

// budgetQuanta controls the DP memory discretisation.
const budgetQuanta = 256

// inf marks a DP cell no option can fill within its budget.
const inf = math.MaxFloat64

// bestOption solves one DP cell: the option of a stage, with budget needs q
// and stage times st, that minimises max(tail[m−q(i)], st(i)), and that
// minimum. It returns (inf, -1) when no option fits m quanta with a
// feasible tail. Ties go to the lowest index, the option with the least
// recomputation.
//
// Along a front q is non-increasing and st non-decreasing, and tail is
// non-increasing in budget, so the options that fit form a suffix on which
// tail(i) = tail[m−q(i)] is non-increasing. max(tail, st) then falls while
// tail dominates and rises once st does; three binary searches find the
// suffix, the crossing k (the first i with st(i) ≥ tail(i)), and, when the
// minimum is tail(k−1), the first option of tail(k−1)'s plateau.
func bestOption(q []int, st, tail []float64, m int) (float64, int32) {
	n := len(q)
	lo, hi := 0, n
	for lo < hi {
		if h := (lo + hi) / 2; q[h] <= m {
			hi = h
		} else {
			lo = h + 1
		}
	}
	first := lo
	for hi = n; lo < hi; {
		if h := (lo + hi) / 2; st[h] >= tail[m-q[h]] {
			hi = h
		} else {
			lo = h + 1
		}
	}
	k := lo
	switch {
	case k < n && (k == first || st[k] < tail[m-q[k-1]]):
		// st(k) lies below every earlier option's tail.
		if st[k] >= inf {
			return inf, -1
		}
		return st[k], int32(k)
	case k > first:
		// tail(k−1) ≤ st(k): the plateau's first option wins.
		best := tail[m-q[k-1]]
		if best >= inf {
			return inf, -1
		}
		for lo, hi = first, k-1; lo < hi; {
			if h := (lo + hi) / 2; tail[m-q[h]] <= best {
				hi = h
			} else {
				lo = h + 1
			}
		}
		return best, int32(lo)
	}
	return inf, -1
}

// GCMR runs Alg 2: distribute the global checkpoint budget across stages to
// minimise the bottleneck stage time, then pair overflowing Senders with
// spare-capacity Helpers. The plan's MaxStageTime is the DP optimum, which
// is the largest chosen stage time, and every overflowing stage ships in at
// least one pair, so NewPlan finds the same Senders.
//
// Each stage's Options must be a front as ParetoFront returns it: memory
// non-increasing and time non-decreasing along the slice. The DP relies on
// that order to find each budget cell's optimum by binary search, so a plan
// costs O(p·257·log n) for p stages of at most n options.
func GCMR(profiles []StageProfile) (*Plan, error) {
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
		minNeed += prof.CkptBytes(len(prof.Options) - 1)
	}
	if minNeed > totalBudget {
		return nil, fmt.Errorf("recompute: OOM — minimal checkpoints need %.1f GB but wafer provides %.1f GB",
			minNeed/1e9, totalBudget/1e9)
	}

	quantum := totalBudget / budgetQuanta
	if quantum <= 0 {
		return nil, fmt.Errorf("recompute: no checkpoint budget")
	}
	// Every option's budget need q (in quanta) and stage time st, once per
	// call; stage t's options sit at [off[t], off[t+1]).
	off := make([]int, p+1)
	for t, prof := range profiles {
		off[t+1] = off[t] + len(prof.Options)
	}
	q := make([]int, off[p])
	st := make([]float64, off[p])
	for t := range profiles {
		prof := &profiles[t]
		for i := range prof.Options {
			q[off[t]+i] = int(math.Ceil(prof.CkptBytes(i) / quantum))
			st[off[t]+i] = prof.StageTime(i)
		}
	}

	// DP from the last stage backwards (Alg 2 lines 2–5):
	// T[t][m] = minimal achievable bottleneck time for stages t..p−1 given
	// m quanta of budget. Only rows t and t+1 are live; choice keeps every
	// row for the extraction.
	const cells = budgetQuanta + 1
	choice := make([]int32, p*cells)
	next := make([]float64, cells) // T[p] = 0
	cur := make([]float64, cells)
	for t := p - 1; t >= 0; t-- {
		qs, sts := q[off[t]:off[t+1]], st[off[t]:off[t+1]]
		row := choice[t*cells : (t+1)*cells]
		for m := range cells {
			cur[m], row[m] = bestOption(qs, sts, next, m)
		}
		cur, next = next, cur
	}
	if next[budgetQuanta] >= inf {
		return nil, fmt.Errorf("recompute: no feasible recomputation plan")
	}

	// Extract the per-stage choices (Alg 2 lines 6–8).
	chosen := make([]int, p)
	m := budgetQuanta
	for t := range chosen {
		oi := int(choice[t*cells+m])
		if oi < 0 {
			return nil, fmt.Errorf("recompute: extraction failed at stage %d", t)
		}
		chosen[t] = oi
		m -= q[off[t]+oi]
	}

	// Sender/Helper identification and pairing (Alg 2 lines 9–14).
	type pressure struct {
		stage int
		delta float64 // positive = overflow, negative = spare
	}
	var senders, helpers []pressure
	for t, oi := range chosen {
		delta := profiles[t].CkptBytes(oi) - profiles[t].LocalCheckpointCapacity()
		if delta > 1e-6 {
			senders = append(senders, pressure{t, delta})
		} else {
			helpers = append(helpers, pressure{t, delta})
		}
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].delta > senders[j].delta })
	sort.Slice(helpers, func(i, j int) bool { return helpers[i].delta < helpers[j].delta }) // most spare first
	var pairs []MemPair
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
			pairs = append(pairs, MemPair{Sender: s.stage, Helper: helpers[hi].stage, Bytes: take})
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
	return NewPlan(profiles, chosen, pairs)
}

// Naive returns the baseline recomputation plan of Fig 8a: each stage only
// considers its local capacity, picking the cheapest option that fits
// locally (no cross-stage balancing). Stages that cannot fit even full
// recomputation locally return an error (the OOM of Fig 8c).
func Naive(profiles []StageProfile) (*Plan, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("recompute: no stages")
	}
	choice := make([]int, len(profiles))
	for t, prof := range profiles {
		local := prof.LocalCheckpointCapacity()
		choice[t] = -1
		for oi := range prof.Options {
			if prof.CkptBytes(oi) <= local {
				choice[t] = oi
				break
			}
		}
		if choice[t] < 0 {
			return nil, fmt.Errorf("recompute: naive plan OOM at stage %d", t)
		}
	}
	return NewPlan(profiles, choice, nil)
}
