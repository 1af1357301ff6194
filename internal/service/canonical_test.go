package service

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/benchutil"
	"repro/internal/canon/canontest"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/sched"
)

// referenceCanonical is Canonical as it was written with fmt, kept
// verbatim: the appenders must write exactly its bytes. Each
// architecture's record comes from (*sched.Result).Canonical, which
// sched's TestRenderCandidateMatchesReference holds to its own fmt
// reference.
func referenceCanonical(res *core.ExploreResult) string {
	var b strings.Builder
	for _, ar := range res.PerArch {
		fmt.Fprintf(&b, "arch=%s err=%v\n", ar.Wafer.Name, ar.Err)
		if ar.Result != nil {
			b.WriteString(ar.Result.Canonical())
		}
	}
	return b.String()
}

// TestCanonicalMatchesReference holds Canonical, which renders every
// architecture's header and record into one buffer, to the fmt reference
// on 10,000 seeded co-explorations whose every field is filled through
// reflect, and on the two golden searches side by side with a failed
// architecture and one without a result.
func TestCanonicalMatchesReference(t *testing.T) {
	check := func(name string, res *core.ExploreResult) {
		t.Helper()
		if got, want := Canonical(res), referenceCanonical(res); got != want {
			t.Fatalf("%s:\n got %q\nwant %q", name, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		var res core.ExploreResult
		canontest.Fill(rng, &res)
		check(fmt.Sprintf("case %d", i), &res)
	}
	if testing.Short() {
		return
	}
	pred := predictor.NewLookupTable(predictor.TileLevel{})
	work := model.Workload{GlobalBatch: 64, MicroBatch: 1, SeqLen: 2048}
	res := &core.ExploreResult{PerArch: []core.ArchResult{
		{Wafer: hw.Config1(), Err: errors.New("core: no feasible strategy\non config1")},
	}}
	for _, ga := range []bool{false, true} {
		r, err := sched.Search(hw.Config3(), model.Llama2_30B(), work, pred, sched.Options{Workers: 1, DisableCache: true, Seed: 7, UseGA: ga})
		if err != nil {
			t.Fatal(err)
		}
		res.PerArch = append(res.PerArch, core.ArchResult{Wafer: hw.Config3(), Result: r})
	}
	res.PerArch = append(res.PerArch, core.ArchResult{Wafer: hw.Config3MeshSwitch()})
	check("golden searches", res)
}

// TestCanonicalAllocs pins the render's allocations on the benchmark
// record (benchutil.CoExploration, 32 candidates): a pooled buffer and
// map-key scratch shared by every candidate leave the returned string as
// about the only allocation. Rendering through fmt made 13,014.
func TestCanonicalAllocs(t *testing.T) {
	res, err := benchutil.CoExploration()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Best.Result.Explored); n != 32 {
		t.Fatalf("the record holds %d candidates, want 32", n)
	}
	if allocs := testing.AllocsPerRun(20, func() { Canonical(res) }); allocs > 32 {
		t.Errorf("Canonical makes %.0f allocations per record, want at most 32 (one per candidate)", allocs)
	}
}
