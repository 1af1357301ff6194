package recompute

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/opgraph"
)

// makeProfile builds a synthetic stage with a three-point frontier:
// no recompute (10 GB, +0 s), partial (6 GB, +0.1 s), full (2 GB, +0.3 s).
func makeProfile(retained int, localGB float64) StageProfile {
	return StageProfile{
		Options: []Option{
			{CkptBytesPerMB: 10e9, ExtraBwdTime: 0},
			{CkptBytesPerMB: 6e9, ExtraBwdTime: 0.1},
			{CkptBytesPerMB: 2e9, ExtraBwdTime: 0.3},
		},
		Retained:    retained,
		FwdTime:     1.0,
		BwdTime:     2.0,
		ModelPBytes: 10e9,
		LocalBytes:  localGB*1e9 + 10e9,
	}
}

func TestParetoFrontDropsDominated(t *testing.T) {
	opts := []Option{
		{CkptBytesPerMB: 10, ExtraBwdTime: 0},
		{CkptBytesPerMB: 8, ExtraBwdTime: 0.5},
		{CkptBytesPerMB: 9, ExtraBwdTime: 0.7}, // dominated by both neighbours
		{CkptBytesPerMB: 2, ExtraBwdTime: 1.0},
	}
	front := ParetoFront(opts)
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3 (%+v)", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].CkptBytesPerMB >= front[i-1].CkptBytesPerMB {
			t.Error("frontier not sorted by descending memory")
		}
		if front[i].ExtraBwdTime <= front[i-1].ExtraBwdTime {
			t.Error("frontier times should increase as memory decreases")
		}
	}
}

func TestGCMRNoRecomputeWhenMemoryAmple(t *testing.T) {
	// Plenty of memory everywhere: GCMR should checkpoint everything.
	profiles := []StageProfile{makeProfile(4, 100), makeProfile(3, 100), makeProfile(2, 100)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	for s, c := range plan.Choice {
		if c != 0 {
			t.Errorf("stage %d chose option %d, want 0 (no recompute)", s, c)
		}
	}
	if plan.MaxStageTime != 3.0 {
		t.Errorf("max stage time = %v, want 3.0", plan.MaxStageTime)
	}
	if len(plan.Pairs) != 0 {
		t.Errorf("no pairs expected, got %v", plan.Pairs)
	}
}

func TestGCMRRecomputesUnderPressure(t *testing.T) {
	// Total need without recompute: (4+3+2)×10 GB = 90 GB; give 60 GB
	// globally so some recomputation is forced.
	profiles := []StageProfile{makeProfile(4, 20), makeProfile(3, 20), makeProfile(2, 20)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	for _, c := range plan.Choice {
		if c > 0 {
			recomputed++
		}
	}
	if recomputed == 0 {
		t.Fatal("expected some recomputation under memory pressure")
	}
	// Global budget respected.
	var used, budget float64
	for s := range profiles {
		used += plan.StageCkptBytes[s]
		budget += profiles[s].LocalCheckpointCapacity()
	}
	if used > budget+1e-6 {
		t.Errorf("plan uses %.1f GB, budget %.1f GB", used/1e9, budget/1e9)
	}
}

func TestGCMRBalancesAcrossStages(t *testing.T) {
	// Stage 0 retains 4 micro-batches and would overflow its local DRAM;
	// stage 2 has spare capacity. GCMR should produce Sender/Helper pairs
	// rather than forcing stage 0 into maximal recomputation.
	profiles := []StageProfile{makeProfile(4, 25), makeProfile(3, 25), makeProfile(1, 40)}
	plan, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Senders) == 0 {
		t.Fatal("expected at least one sender (stage 0 overflows locally)")
	}
	if plan.OverflowBytes <= 0 {
		t.Fatal("expected checkpoint overflow to helpers")
	}
	for _, pr := range plan.Pairs {
		if pr.Sender == pr.Helper {
			t.Error("sender paired with itself")
		}
		if pr.Bytes <= 0 {
			t.Error("non-positive pair volume")
		}
	}
}

func TestGCMRBeatsNaiveOnBottleneck(t *testing.T) {
	// Naive forces stage 0 (high retention, small local DRAM) into heavy
	// recomputation; GCMR offloads to stage 2 and keeps the bottleneck low
	// (Fig 8b vs 8a).
	profiles := []StageProfile{makeProfile(4, 25), makeProfile(3, 25), makeProfile(1, 40)}
	g, err := GCMR(profiles)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Naive(profiles)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxStageTime > n.MaxStageTime {
		t.Errorf("GCMR bottleneck (%v) should not exceed naive (%v)", g.MaxStageTime, n.MaxStageTime)
	}
}

func TestNaiveOOM(t *testing.T) {
	// Even full recompute (2 GB/mb × 4 retained = 8 GB) cannot fit 5 GB
	// local capacity → naive fails where GCMR could balance.
	tight := []StageProfile{makeProfile(4, 5), makeProfile(1, 60)}
	if _, err := Naive(tight); err == nil {
		t.Fatal("naive should OOM on the tight stage")
	}
	if _, err := GCMR(tight); err != nil {
		t.Fatalf("GCMR should balance instead of OOM: %v", err)
	}
}

func TestGCMRGlobalOOM(t *testing.T) {
	profiles := []StageProfile{makeProfile(4, 1), makeProfile(3, 1)}
	if _, err := GCMR(profiles); err == nil {
		t.Fatal("expected global OOM when even full recompute cannot fit")
	}
}

func TestGCMREmptyInput(t *testing.T) {
	if _, err := GCMR(nil); err == nil {
		t.Error("empty profiles should fail")
	}
	if _, err := Naive(nil); err == nil {
		t.Error("empty profiles should fail")
	}
}

// TestNewPlan pins the one plan rule: each stage's bytes and extra time come
// from its chosen option, MaxStageTime is the largest stage time, Senders
// are the stages that ship in pairs and Helpers the rest (both in stage
// order), OverflowBytes sums the pairs, and the plan owns its slices.
func TestNewPlan(t *testing.T) {
	profiles := []StageProfile{makeProfile(3, 10), makeProfile(2, 10), makeProfile(1, 10)}
	profiles[2].BwdTime = 2.5
	choice := []int{0, 2, 1}
	pairs := []MemPair{{Sender: 2, Helper: 1, Bytes: 1.5e9}, {Sender: 0, Helper: 1, Bytes: 2e9}}
	plan, err := NewPlan(profiles, choice, pairs)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Choice:         []int{0, 2, 1},
		StageCkptBytes: []float64{30e9, 4e9, 6e9},
		ExtraBwd:       []float64{0, 0.3, 0.1},
		MaxStageTime:   1.0 + 2.5 + 0.1,
		Senders:        []int{0, 2},
		Helpers:        []int{1},
		Pairs:          []MemPair{{Sender: 2, Helper: 1, Bytes: 1.5e9}, {Sender: 0, Helper: 1, Bytes: 2e9}},
		OverflowBytes:  3.5e9,
	}
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("plan = %+v\nwant %+v", plan, want)
	}
	choice[0], pairs[0].Bytes = 1, 0
	if plan.Choice[0] != 0 || plan.Pairs[0].Bytes != 1.5e9 {
		t.Error("the plan shares its choice or pair slice with the caller")
	}

	// An empty pair set leaves Pairs nil, as GCMR and Naive render it, and
	// makes every stage a Helper.
	plan, err = NewPlan(profiles, []int{2, 2, 2}, []MemPair{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Pairs != nil || plan.Senders != nil || !reflect.DeepEqual(plan.Helpers, []int{0, 1, 2}) || plan.OverflowBytes != 0 {
		t.Errorf("pairless plan = %+v, want nil Pairs and Senders, every stage a Helper", plan)
	}

	for name, c := range map[string]struct {
		choice []int
		pairs  []MemPair
	}{
		"short choice":        {[]int{0, 0}, nil},
		"option out of range": {[]int{0, 3, 0}, nil},
		"negative option":     {[]int{0, -1, 0}, nil},
		"pair off the stages": {[]int{0, 0, 0}, []MemPair{{Sender: 3, Helper: 0, Bytes: 1}}},
	} {
		if plan, err := NewPlan(profiles, c.choice, c.pairs); err == nil {
			t.Errorf("%s: NewPlan = %+v, want an error", name, plan)
		}
	}
}

func TestBuildOptionsFrontier(t *testing.T) {
	g, err := opgraph.Build(model.Llama2_30B(), 4, 1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	cost := func(op opgraph.Op) OpCost {
		return OpCost{Latency: op.RecomputeFLOPs() / 1e15, CommTime: op.AllReduceBytes / 4e12}
	}
	opts, err := BuildOptions(g, cost, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) < 3 {
		t.Fatalf("frontier too small: %d", len(opts))
	}
	// First option: no recomputation, max memory, zero extra time.
	if opts[0].ExtraBwdTime != 0 {
		t.Errorf("first option should be full checkpointing, got %+v", opts[0])
	}
	// Last option: everything recomputable recomputed; memory = boundary.
	last := opts[len(opts)-1]
	wantMin := g.BoundaryBytes() * 10
	if math.Abs(last.CkptBytesPerMB-wantMin)/wantMin > 1e-9 {
		t.Errorf("minimal footprint = %g, want boundary-only %g", last.CkptBytesPerMB, wantMin)
	}
	// Frontier is monotone.
	for i := 1; i < len(opts); i++ {
		if opts[i].CkptBytesPerMB >= opts[i-1].CkptBytesPerMB || opts[i].ExtraBwdTime <= opts[i-1].ExtraBwdTime {
			t.Fatalf("frontier not monotone at %d", i)
		}
	}
}

func TestBuildOptionsRejectsBadInput(t *testing.T) {
	g, _ := opgraph.Build(model.Llama2_30B(), 2, 1, 1024)
	if _, err := BuildOptions(g, func(opgraph.Op) OpCost { return OpCost{} }, 0); err == nil {
		t.Error("zero layers should fail")
	}
}

func TestGCMRBudgetRespectedProperty(t *testing.T) {
	f := func(l0, l1, l2 uint8) bool {
		profiles := []StageProfile{
			makeProfile(4, float64(l0%40)+9),
			makeProfile(3, float64(l1%40)+7),
			makeProfile(2, float64(l2%40)+5),
		}
		plan, err := GCMR(profiles)
		if err != nil {
			return true // OOM is legal for tiny budgets
		}
		var used, budget float64
		for s := range profiles {
			used += plan.StageCkptBytes[s]
			budget += profiles[s].LocalCheckpointCapacity()
		}
		if used > budget+1e-3 {
			return false
		}
		// All pair volumes must be covered by helpers' spare capacity.
		spare := map[int]float64{}
		for _, h := range plan.Helpers {
			spare[h] = profiles[h].LocalCheckpointCapacity() - plan.StageCkptBytes[h]
		}
		for _, pr := range plan.Pairs {
			spare[pr.Helper] -= pr.Bytes
		}
		for h, s := range spare {
			if s < -1e-3 {
				_ = h
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
