package hw

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// EnumeratorOptions bound the architecture design space explored by the
// Enumerator (Fig 9 "Arch Params Candidates" → "Enumerator"). Zero values
// select the defaults used for the paper's DSE.
type EnumeratorOptions struct {
	// Dies to consider for the compute sites.
	Dies []DieConfig
	// HBMPerDie lists DRAM-chiplet counts per die to consider.
	HBMPerDie []int
	// MinDies discards wafers with fewer total dies (wafer must still be
	// worth building).
	MinDies int
	// MaxDies caps the die grid.
	MaxDies int
	// Chiplet overrides the DRAM chiplet; zero value uses the default.
	Chiplet HBMChipletConfig
	// WaferEdgeMM overrides the usable wafer edge; zero uses 198.32.
	WaferEdgeMM float64
}

func (o *EnumeratorOptions) setDefaults() {
	if len(o.Dies) == 0 {
		o.Dies = []DieConfig{DieA(), DieB()}
	}
	if len(o.HBMPerDie) == 0 {
		o.HBMPerDie = []int{1, 2, 3, 4, 5, 6}
	}
	if o.MinDies == 0 {
		o.MinDies = 16
	}
	if o.MaxDies == 0 {
		o.MaxDies = 128
	}
	if o.Chiplet == (HBMChipletConfig{}) {
		o.Chiplet = DefaultHBMChiplet()
	}
	if o.WaferEdgeMM == 0 {
		o.WaferEdgeMM = 198.32
	}
}

// Enumerate exhaustively generates every wafer configuration that satisfies
// the physical area and IO constraints: for each candidate die and DRAM
// chiplet count it packs the largest N_X × N_Y grid of die sites onto the
// wafer and emits the resulting architecture. Candidates are returned sorted
// by descending aggregate compute throughput. Each packing takes
// microseconds, so the (die, HBM count) grid is packed in a plain loop.
func Enumerate(opts EnumeratorOptions) []WaferConfig {
	opts.setDefaults()
	var out []WaferConfig
	for _, die := range opts.Dies {
		for _, hbm := range opts.HBMPerDie {
			if w, ok := pack(die, hbm, &opts); ok {
				out = append(out, w)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := out[i].PeakFLOPS(), out[j].PeakFLOPS()
		if pi != pj {
			return pi > pj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// pack builds the wafer of one (die, HBM count) point with the largest
// near-square die grid its area budget admits, and reports whether it
// meets the die-count bounds and the physical constraints.
func pack(die DieConfig, hbm int, opts *EnumeratorOptions) (WaferConfig, bool) {
	w := WaferConfig{
		Name:           fmt.Sprintf("%s-hbm%d", die.Name, hbm),
		Die:            die,
		HBMPerDie:      hbm,
		HBM:            opts.Chiplet,
		D2DLinkLatency: 100 * units.Nanosecond,
		NoCLatency:     20 * units.Nanosecond,
		Topology:       Mesh2D,
		WaferEdgeMM:    opts.WaferEdgeMM,
		HostBandwidth:  160 * units.GB,
	}
	site := w.SiteAreaMM2()
	if site <= 0 {
		return w, false
	}
	maxDies := int(math.Floor(w.AreaBudget() / site))
	if maxDies < 1 {
		return w, false
	}
	dx, dy := nearSquareGrid(maxDies)
	if dx < 1 || dy < 1 {
		return w, false
	}
	w.DiesX, w.DiesY = dx, dy
	if w.Dies() < opts.MinDies || w.Dies() > opts.MaxDies || w.Validate() != nil {
		return w, false
	}
	w.Name = fmt.Sprintf("%s-%dx%d", w.Name, dx, dy)
	return w, true
}

// nearSquareGrid returns the most-square dx×dy grid with dx·dy ≤ n and the
// largest achievable product. Wafer meshes prefer near-square grids for
// short collective paths.
func nearSquareGrid(n int) (dx, dy int) {
	best := 0
	for d := n; d >= max(1, best); d-- {
		// Largest factor pair of d.
		for a := int(math.Sqrt(float64(d))); a >= 1; a-- {
			if d%a == 0 {
				b := d / a
				// Reject extreme aspect ratios; they waste wafer edge.
				if float64(b)/float64(a) <= 2.5 && d > best {
					best, dx, dy = d, b, a
				}
				break
			}
		}
	}
	if best == 0 {
		return n, 1
	}
	return dx, dy
}

// SizeClass categorises a die for the hardware DSE of §VI-F (Fig 25).
type SizeClass struct {
	Small  bool // area < 400 mm²
	Square bool // aspect ratio < 1.2
}

// Classify returns the Fig 25 size/shape class of the die.
func Classify(d DieConfig) SizeClass {
	return SizeClass{
		Small:  d.AreaMM2() < 400,
		Square: d.AspectRatio() < 1.2,
	}
}

func (c SizeClass) String() string {
	s := "Large"
	if c.Small {
		s = "Small"
	}
	if c.Square {
		return s + " Square"
	}
	return s + " Rectangle"
}

// DieSweep generates die candidates from 200 mm² to 600 mm² in the four
// Fig 25 classes. The core array scales with area at a constant compute
// density; rectangular dies keep the same area at a 2:1 aspect ratio.
func DieSweep() []DieConfig {
	base := DieB()
	density := base.PeakFLOPS() / base.AreaMM2() // FLOP/s per mm²
	var out []DieConfig
	for area := 200.0; area <= 600.0+1e-9; area += 50.0 {
		for _, square := range []bool{true, false} {
			d := base
			d.PeakFLOPSOverride = density * area
			if square {
				edge := math.Sqrt(area)
				d.WidthMM, d.HeightMM = edge, edge
				d.Name = fmt.Sprintf("die-sq-%dmm2", int(area))
			} else {
				h := math.Sqrt(area / 2)
				d.WidthMM, d.HeightMM = 2*h, h
				d.Name = fmt.Sprintf("die-rect-%dmm2", int(area))
			}
			// Keep the core array roughly proportional to area so the
			// dataflow model sees a consistent core count.
			side := int(math.Max(4, math.Round(18*math.Sqrt(area/base.AreaMM2()))))
			d.CoreRows, d.CoreCols = side, side
			out = append(out, d)
		}
	}
	return out
}
