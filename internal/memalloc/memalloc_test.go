package memalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
)

func setup(t *testing.T) (*mesh.Mesh, *placement.Placement) {
	t.Helper()
	m := mesh.New(hw.Config3())
	pl, err := placement.Serpentine(m, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	return m, pl
}

func budgetsFor(pl *placement.Placement, stages []int, perDie float64) []DieBudget {
	var out []DieBudget
	for _, s := range stages {
		for _, d := range pl.Regions[s].Dies {
			out = append(out, DieBudget{Die: d, Free: perDie})
		}
	}
	return out
}

func TestAllocateSatisfiesRequest(t *testing.T) {
	m, pl := setup(t)
	reqs := []Request{{Sender: 0, Bytes: 50e9}}
	budgets := budgetsFor(pl, []int{6, 7}, 10e9)
	allocs, err := Allocate(m, pl, reqs, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, a := range allocs {
		if a.Bytes <= 0 {
			t.Error("non-positive allocation")
		}
		total += a.Bytes
	}
	if total < 50e9-1 {
		t.Errorf("allocated %.1f GB, want 50", total/1e9)
	}
}

func TestAllocatePrefersNearbyDies(t *testing.T) {
	m, pl := setup(t)
	// Sender stage 1; helpers available far (stage 7) and near (stage 2).
	reqs := []Request{{Sender: 1, Bytes: 5e9}}
	budgets := append(budgetsFor(pl, []int{7}, 10e9), budgetsFor(pl, []int{2}, 10e9)...)
	allocs, err := Allocate(m, pl, reqs, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	anchor := pl.Regions[1].Anchor()
	far := pl.Regions[7].Anchor()
	for _, a := range allocs {
		if m.Hops(anchor, a.Die) >= m.Hops(anchor, far) {
			t.Errorf("allocation to distant die %v while near helpers were free", a.Die)
		}
	}
}

func TestAllocateRespectsBudgets(t *testing.T) {
	m, pl := setup(t)
	reqs := []Request{{Sender: 0, Bytes: 30e9}, {Sender: 1, Bytes: 30e9}}
	budgets := budgetsFor(pl, []int{5, 6, 7}, 4e9)
	allocs, err := Allocate(m, pl, reqs, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	used := map[mesh.DieID]float64{}
	for _, a := range allocs {
		used[a.Die] += a.Bytes
	}
	for d, u := range used {
		if u > 4e9+1 {
			t.Errorf("die %v over-allocated: %.1f GB", d, u/1e9)
		}
	}
}

func TestAllocateFailsWhenInsufficient(t *testing.T) {
	m, pl := setup(t)
	reqs := []Request{{Sender: 0, Bytes: 100e9}}
	budgets := budgetsFor(pl, []int{7}, 1e9) // 7 GB total
	if _, err := Allocate(m, pl, reqs, budgets, nil); err == nil {
		t.Fatal("expected allocation failure")
	}
}

func TestAllocateAvoidsConflictedPaths(t *testing.T) {
	m, pl := setup(t)
	// Occupy the direct row between stage 0 and its right neighbours; the
	// allocator should then prefer dies reachable without conflicts when
	// cost-equivalent capacity exists elsewhere.
	occupied := m.NewLinkSet()
	for _, id := range m.XYPathIDs(pl.Regions[0].Anchor(), pl.Regions[1].Anchor()) {
		occupied.Add(int(id))
	}
	reqs := []Request{{Sender: 0, Bytes: 2e9}}
	budgets := append(budgetsFor(pl, []int{1}, 5e9), budgetsFor(pl, []int{2}, 5e9)...)
	allocs, err := Allocate(m, pl, reqs, budgets, occupied)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) == 0 {
		t.Fatal("no allocations")
	}
}

func TestLargestRequestFirst(t *testing.T) {
	m, pl := setup(t)
	// The big request should get the near helper; the small one the far.
	budgets := append(budgetsFor(pl, []int{2}, 3e9), budgetsFor(pl, []int{7}, 30e9)...)
	reqs := []Request{
		{Sender: 1, Bytes: 1e9},
		{Sender: 1, Bytes: 20e9},
	}
	allocs, err := Allocate(m, pl, reqs, budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) < 2 {
		t.Fatalf("expected multiple allocations, got %d", len(allocs))
	}
}

func TestFromPlan(t *testing.T) {
	_, pl := setup(t)
	plan := &recompute.Plan{
		StageCkptBytes: []float64{50e9, 10e9, 10e9, 10e9, 10e9, 10e9, 10e9, 5e9},
		Helpers:        []int{5, 6, 7},
		Pairs: []recompute.MemPair{
			{Sender: 0, Helper: 7, Bytes: 20e9},
		},
	}
	reqs, budgets := FromPlan(pl, plan, func(stage int) float64 { return 30e9 })
	if len(reqs) != 1 || reqs[0].Sender != 0 || reqs[0].Bytes != 20e9 {
		t.Fatalf("requests = %+v", reqs)
	}
	if len(budgets) != 3*7 {
		t.Fatalf("budgets = %d dies, want 21", len(budgets))
	}
	for _, b := range budgets {
		if b.Free <= 0 {
			t.Error("non-positive budget")
		}
	}
}

func TestAllocationConservationProperty(t *testing.T) {
	m, pl := setup(t)
	f := func(gb uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		want := float64(gb%60+1) * 1e9
		budgets := budgetsFor(pl, []int{4, 5, 6, 7}, float64(rng.Intn(8)+3)*1e9)
		allocs, err := Allocate(m, pl, []Request{{Sender: 0, Bytes: want}}, budgets, nil)
		if err != nil {
			return true // insufficient capacity is a legal failure
		}
		var got float64
		for _, a := range allocs {
			got += a.Bytes
		}
		return got >= want-1 && got <= want+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
