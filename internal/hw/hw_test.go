package hw

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestTableIIPresetsMatchPaper(t *testing.T) {
	cases := []struct {
		cfg      WaferConfig
		dies     int
		dx, dy   int
		perDieTF float64
		dramGB   float64
		dramTBs  float64
		d2dTBs   float64
	}{
		{Config1(), 64, 8, 8, 512, 48, 1.0, 4.5},
		{Config2(), 56, 7, 8, 708, 64, 1.5, 4.5},
		{Config3(), 56, 7, 8, 708, 70, 2.0, 4.0},
		{Config4(), 48, 6, 8, 708, 96, 2.5, 3.5},
	}
	for _, c := range cases {
		if got := c.cfg.Dies(); got != c.dies {
			t.Errorf("%s: dies = %d, want %d", c.cfg.Name, got, c.dies)
		}
		if c.cfg.DiesX != c.dx || c.cfg.DiesY != c.dy {
			t.Errorf("%s: grid = %dx%d, want %dx%d", c.cfg.Name, c.cfg.DiesX, c.cfg.DiesY, c.dx, c.dy)
		}
		if got := c.cfg.DiePeakFLOPS() / units.TFLOPS; math.Abs(got-c.perDieTF) > 1 {
			t.Errorf("%s: per-die TFLOPS = %.0f, want %.0f", c.cfg.Name, got, c.perDieTF)
		}
		if got := c.cfg.DieDRAM() / units.GB; math.Abs(got-c.dramGB) > 0.1 {
			t.Errorf("%s: DRAM/die = %.0f GB, want %.0f", c.cfg.Name, got, c.dramGB)
		}
		if got := c.cfg.DieDRAMBandwidth() / units.TB; math.Abs(got-c.dramTBs) > 0.01 {
			t.Errorf("%s: DRAM BW = %.1f TB/s, want %.1f", c.cfg.Name, got, c.dramTBs)
		}
		if got := c.cfg.LinkBandwidth() / units.TB; math.Abs(got-c.d2dTBs) > 0.01 {
			t.Errorf("%s: D2D BW = %.1f TB/s, want %.1f", c.cfg.Name, got, c.d2dTBs)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: Validate: %v", c.cfg.Name, err)
		}
	}
}

func TestConfig3MatchesPaperAggregate(t *testing.T) {
	// §V-C: the 56-die WSC provides 39,648 TFLOPS.
	got := Config3().PeakFLOPS() / units.TFLOPS
	if math.Abs(got-39648) > 1 {
		t.Fatalf("config3 aggregate = %.0f TFLOPS, want 39648", got)
	}
}

func TestWaferAreaConstraint(t *testing.T) {
	// A 20x20 grid of DieB sites cannot fit the wafer.
	w := baseWafer("too-big", DieB(), 20, 20, 3)
	if err := w.Validate(); err == nil {
		t.Fatal("expected area violation for 20x20 grid of 25.5mm dies")
	}
}

func TestHBMPortIOConstraint(t *testing.T) {
	w := baseWafer("io-starved", DieA(), 4, 4, 30)
	if err := w.Validate(); err == nil {
		t.Fatal("expected IO violation for 30 HBM chiplets per die")
	}
}

func TestDerivedD2DBandwidthTradeoff(t *testing.T) {
	// More HBM chiplets must never increase derived D2D bandwidth (Fig 4d).
	prev := math.Inf(1)
	for hbm := 0; hbm <= 6; hbm++ {
		w := baseWafer("t", DieA(), 4, 4, hbm)
		bw := w.LinkBandwidth()
		if bw > prev+1e-9 {
			t.Fatalf("D2D bandwidth increased from %.2g to %.2g when adding HBM", prev, bw)
		}
		prev = bw
	}
}

func TestSiteDimensionsGrowWithHBM(t *testing.T) {
	w0 := baseWafer("t", DieA(), 4, 4, 0)
	w3 := baseWafer("t", DieA(), 4, 4, 3)
	sw0, _ := w0.SiteDimensionsMM()
	sw3, _ := w3.SiteDimensionsMM()
	if sw3 <= sw0 {
		t.Fatalf("site width with 3 HBM (%.2f) should exceed bare die (%.2f)", sw3, sw0)
	}
}

func TestEnumerateRespectsConstraints(t *testing.T) {
	cands := Enumerate(EnumeratorOptions{})
	if len(cands) == 0 {
		t.Fatal("enumerator returned no candidates")
	}
	for _, c := range cands {
		if err := c.Validate(); err != nil {
			t.Errorf("candidate %s violates constraints: %v", c.Name, err)
		}
	}
	// Sorted by descending compute.
	for i := 1; i < len(cands); i++ {
		if cands[i].PeakFLOPS() > cands[i-1].PeakFLOPS()+1e-6 {
			t.Fatalf("candidates not sorted by compute at %d", i)
		}
	}
}

// TestEnumerateCandidateNames pins the enumerator's output, names and
// order, for the default design space and for examples/archdse's (two to
// six DRAM chiplets per die): the order is the descending-compute sort,
// ties broken by name.
func TestEnumerateCandidateNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts EnumeratorOptions
		want []string
	}{
		{"defaults", EnumeratorOptions{}, []string{
			"die-18x18-hbm1-9x7",
			"die-18x18-hbm2-10x6",
			"die-16x16-hbm1-10x8",
			"die-18x18-hbm3-8x7",
			"die-18x18-hbm4-8x7",
			"die-18x18-hbm5-8x7",
			"die-16x16-hbm2-11x7",
			"die-18x18-hbm6-11x5",
			"die-16x16-hbm3-9x8",
			"die-16x16-hbm4-9x8",
			"die-16x16-hbm5-10x7",
			"die-16x16-hbm6-11x6",
		}},
		{"archdse", EnumeratorOptions{HBMPerDie: []int{2, 3, 4, 5, 6}}, []string{
			"die-18x18-hbm2-10x6",
			"die-18x18-hbm3-8x7",
			"die-18x18-hbm4-8x7",
			"die-18x18-hbm5-8x7",
			"die-16x16-hbm2-11x7",
			"die-18x18-hbm6-11x5",
			"die-16x16-hbm3-9x8",
			"die-16x16-hbm4-9x8",
			"die-16x16-hbm5-10x7",
			"die-16x16-hbm6-11x6",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, c := range Enumerate(tc.opts) {
				got = append(got, c.Name)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("candidates %q, want %q", got, tc.want)
			}
		})
	}
}

func TestEnumerateTradeoffShape(t *testing.T) {
	// Within one die type, more HBM per die must reduce total dies or keep
	// them equal (area trade-off), and always raise per-die DRAM.
	cands := Enumerate(EnumeratorOptions{Dies: []DieConfig{DieB()}})
	byHBM := map[int]WaferConfig{}
	for _, c := range cands {
		byHBM[c.HBMPerDie] = c
	}
	for h := 2; h <= 6; h++ {
		lo, okLo := byHBM[h-1]
		hi, okHi := byHBM[h]
		if !okLo || !okHi {
			continue
		}
		if hi.Dies() > lo.Dies() {
			t.Errorf("hbm %d→%d grew die count %d→%d", h-1, h, lo.Dies(), hi.Dies())
		}
		if hi.DieDRAM() <= lo.DieDRAM() {
			t.Errorf("hbm %d→%d did not grow DRAM", h-1, h)
		}
	}
}

func TestClassify(t *testing.T) {
	small := DieConfig{WidthMM: 15, HeightMM: 15}
	if c := Classify(small); !c.Small || !c.Square {
		t.Errorf("15x15 = %v, want Small Square", c)
	}
	rect := DieConfig{WidthMM: 40, HeightMM: 12}
	if c := Classify(rect); c.Small || c.Square {
		t.Errorf("40x12 = %v, want Large Rectangle", c)
	}
}

func TestDieSweepClasses(t *testing.T) {
	dies := DieSweep()
	if len(dies) == 0 {
		t.Fatal("empty die sweep")
	}
	seen := map[string]bool{}
	for _, d := range dies {
		if d.AreaMM2() < 200-1 || d.AreaMM2() > 600+1 {
			t.Errorf("die %s area %.0f outside [200,600]", d.Name, d.AreaMM2())
		}
		seen[Classify(d).String()] = true
	}
	for _, cls := range []string{"Small Square", "Small Rectangle", "Large Square", "Large Rectangle"} {
		if !seen[cls] {
			t.Errorf("die sweep missing class %s", cls)
		}
	}
}

func TestGPUPresets(t *testing.T) {
	g := BlackwellUltraNode()
	if got := g.PeakFLOPS() / units.TFLOPS; math.Abs(got-40000) > 1 {
		t.Errorf("MG-GPU peak = %.0f TFLOPS, want 40000", got)
	}
	if got := g.TotalHBM() / units.GB; math.Abs(got-3920) > 1 {
		t.Errorf("MG-GPU HBM = %.0f GB, want 3920 (scaled per §V-C)", got)
	}
	n := NVL72GB300(708 * units.TFLOPS)
	if n.GPUs() != 56 {
		t.Errorf("NVL72 GPUs = %d, want 56", n.GPUs())
	}
	c := MegatronCluster(4)
	if c.GPUs() != 32 {
		t.Errorf("cluster GPUs = %d, want 32", c.GPUs())
	}
}

func TestMultiWafer(t *testing.T) {
	m := MultiWafer(Config3(), 4, 1.8*units.TB)
	if m.TotalDies() != 4*56 {
		t.Fatalf("multi-wafer dies = %d, want 224", m.TotalDies())
	}
	if m.W2W.Bandwidth != 1.8*units.TB {
		t.Fatalf("W2W bandwidth not set")
	}
}

func TestAspectRatioProperty(t *testing.T) {
	f := func(w, h uint8) bool {
		d := DieConfig{WidthMM: float64(w%50) + 1, HeightMM: float64(h%50) + 1}
		return d.AspectRatio() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkBandwidthNonNegativeProperty(t *testing.T) {
	f := func(hbm uint8) bool {
		w := baseWafer("p", DieA(), 4, 4, int(hbm%32))
		return w.LinkBandwidth() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
