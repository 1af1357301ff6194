// Package memalloc implements the location-aware DRAM capacity allocation of
// §IV-C-2 (Alg 3): each Sender stage's overflowing activation checkpoints
// are placed on specific helper dies' DRAM, prioritised by communication
// cost (path length from the sender region, punished by routing conflicts),
// with helper capacity consumed incrementally and re-prioritised as it
// drains.
//
// Because WSC D2D bandwidth typically exceeds DRAM access bandwidth, the
// inter-die transfer of checkpoints is overlapped by DRAM access (§IV-C-2);
// the allocation therefore minimises *additional* D2D overhead rather than
// the raw transfer time.
package memalloc

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
)

// Allocation assigns part of a sender's overflow to one helper die.
type Allocation struct {
	Sender int        // sender stage index
	Die    mesh.DieID // helper die receiving the checkpoints
	Bytes  float64
	Hops   int // distance from the sender region anchor
}

// DieBudget tracks the free checkpoint DRAM of one helper die.
type DieBudget struct {
	Die  mesh.DieID
	Free float64
}

// Request is one sender's overflow demand.
type Request struct {
	Sender int
	Bytes  float64
}

// helperEntry is a priority-queue item: lower cost = preferred destination.
type helperEntry struct {
	die   mesh.DieID
	free  float64
	cost  float64
	index int
}

type helperQueue []*helperEntry

func (q helperQueue) Len() int { return len(q) }
func (q helperQueue) Less(i, j int) bool {
	// Tie-break equal costs by die coordinate so the allocation is a pure
	// function of its inputs (the evaluation cache and the parallel search
	// runtime both rely on run-to-run determinism).
	if q[i].cost != q[j].cost {
		return q[i].cost < q[j].cost
	}
	return mesh.DieLess(q[i].die, q[j].die)
}
func (q helperQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *helperQueue) Push(x any) {
	e := x.(*helperEntry)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *helperQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Allocate runs Alg 3: for each sender (largest overflow first), helpers'
// dies are ranked by GlobalCost-style distance from the sender's anchor
// (punished by conflicts with pipeline paths), and capacity is drawn from
// the cheapest dies until the overflow is covered. Budgets are shared
// across senders; partially drained dies are re-inserted with their reduced
// capacity (Alg 3 lines 5–9). occupied is the dense set of links already
// carrying pipeline traffic (nil = none).
func Allocate(m *mesh.Mesh, pl *placement.Placement, requests []Request, budgets []DieBudget, occupied *mesh.LinkSet) ([]Allocation, error) {
	free := map[mesh.DieID]float64{}
	// dieOrder keeps the helper dies in first-seen budget order so the heap
	// is seeded deterministically (map iteration order is randomised).
	var dieOrder []mesh.DieID
	for _, b := range budgets {
		if b.Free > 0 {
			if _, seen := free[b.Die]; !seen {
				dieOrder = append(dieOrder, b.Die)
			}
			free[b.Die] += b.Free
		}
	}
	reqs := append([]Request(nil), requests...)
	sort.Slice(reqs, func(i, j int) bool {
		if reqs[i].Bytes != reqs[j].Bytes {
			return reqs[i].Bytes > reqs[j].Bytes
		}
		return reqs[i].Sender < reqs[j].Sender
	})
	var out []Allocation
	for _, req := range reqs {
		if req.Bytes <= 0 {
			continue
		}
		if req.Sender < 0 || req.Sender >= len(pl.Regions) {
			return nil, fmt.Errorf("memalloc: sender stage %d out of range", req.Sender)
		}
		anchor := pl.Regions[req.Sender].Anchor()
		// Build the priority queue Q of helper dies (Alg 3 line 2).
		q := &helperQueue{}
		heap.Init(q)
		for _, die := range dieOrder {
			f := free[die]
			if f <= 0 {
				continue
			}
			cost := pathCost(m, anchor, die, occupied)
			heap.Push(q, &helperEntry{die: die, free: f, cost: cost})
		}
		remaining := req.Bytes
		for remaining > 1e-6 {
			if q.Len() == 0 {
				return nil, fmt.Errorf("memalloc: sender %d overflow %.2f GB unplaceable", req.Sender, remaining/1e9)
			}
			e := heap.Pop(q).(*helperEntry)
			take := e.free
			if take > remaining {
				take = remaining
			}
			out = append(out, Allocation{
				Sender: req.Sender,
				Die:    e.die,
				Bytes:  take,
				Hops:   m.Hops(anchor, e.die),
			})
			remaining -= take
			free[e.die] -= take
			// Re-insert partially consumed dies (Alg 3 lines 6–8); fully
			// drained dies stay out.
			if free[e.die] > 1e-6 {
				e.free = free[e.die]
				heap.Push(q, e)
			}
		}
	}
	return out, nil
}

// pathCost ranks a helper die for a sender: hop distance punished by (1+γ)
// conflicts against existing pipeline paths; dead routes are +inf-like.
func pathCost(m *mesh.Mesh, from, to mesh.DieID, occupied *mesh.LinkSet) float64 {
	if from == to {
		return 0
	}
	best := -1.0
	for _, p := range m.ShortestPathIDs(from, to) {
		usable := true
		for _, id := range p {
			if m.EffBW(int(id)) <= 0 {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		gamma := 0
		if occupied != nil {
			gamma = occupied.CountIn(p)
		}
		c := float64(len(p)) * (1 + float64(gamma))
		if best < 0 || c < best {
			best = c
		}
	}
	if best < 0 {
		return 1e18 // unreachable; effectively never chosen
	}
	return best
}

// FromPlan converts a GCMR plan into allocation requests and per-die helper
// budgets: each helper stage's spare DRAM is spread evenly over its dies.
func FromPlan(pl *placement.Placement, plan *recompute.Plan, localCapacity func(stage int) float64) ([]Request, []DieBudget) {
	var reqs []Request
	overflow := map[int]float64{}
	var senderOrder []int
	for _, pr := range plan.Pairs {
		if _, seen := overflow[pr.Sender]; !seen {
			senderOrder = append(senderOrder, pr.Sender)
		}
		overflow[pr.Sender] += pr.Bytes
	}
	// Emit requests in first-seen sender order (not map order) so repeated
	// runs produce identical allocations.
	for _, s := range senderOrder {
		reqs = append(reqs, Request{Sender: s, Bytes: overflow[s]})
	}
	var budgets []DieBudget
	for _, h := range plan.Helpers {
		if h >= len(pl.Regions) {
			continue
		}
		spare := localCapacity(h) - plan.StageCkptBytes[h]
		if spare <= 0 {
			continue
		}
		per := spare / float64(len(pl.Regions[h].Dies))
		for _, d := range pl.Regions[h].Dies {
			budgets = append(budgets, DieBudget{Die: d, Free: per})
		}
	}
	return reqs, budgets
}
