// Package canon renders the repository's canonical texts with append-style
// strconv code instead of fmt's reflection: the exploration record
// (sched.RenderCandidate, service.Canonical) and the strategy half of the
// evaluation-cache key (search.Fingerprint). Each appender writes exactly
// the bytes fmt writes for the same value under the verb its comment names;
// the fmt code it replaces is kept in the callers' tests as the reference,
// and seeded cross-checks on reflect-filled values hold the two to the same
// bytes, so a field added to a rendered type fails them until it is
// rendered here too.
//
// fmt prints a map's entries sorted by key, struct keys field by field in
// declaration order: dies by (X, Y) and links by (From.X, From.Y, To.X,
// To.Y). That is not mesh.DieLess or mesh.LinkLess, which order by (Y, X).
package canon

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/memalloc"
	"repro/internal/mesh"
	"repro/internal/placement"
	"repro/internal/recompute"
	"repro/internal/sim"
)

// Float appends v as %v and %g print a float64; NaN, ±Inf and -0 included.
// An integer below 1e6 in magnitude, which %g prints without a fraction or
// an exponent, takes the integer path, except -0, whose sign %g keeps.
func Float(b []byte, v float64) []byte {
	if -1e6 < v && v < 1e6 && v == math.Trunc(v) && (v != 0 || !math.Signbit(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Int appends v as %v and %d print it.
func Int(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// Error appends err as %v prints it: "<nil>" for a nil error, otherwise
// its Error text (no error type in the repository implements
// fmt.Formatter).
func Error(b []byte, err error) []byte {
	if err == nil {
		return append(b, "<nil>"...)
	}
	return append(b, err.Error()...)
}

// Ints appends s as %v prints an []int: "[1 2 3]", "[]" when empty or nil.
func Ints(b []byte, s []int) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = Int(b, v)
	}
	return append(b, ']')
}

// Floats appends s as %v prints a []float64.
func Floats(b []byte, s []float64) []byte {
	b = append(b, '[')
	for i, v := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = Float(b, v)
	}
	return append(b, ']')
}

// Dies appends s as %v prints a []mesh.DieID: "[(0,0) (1,0)]".
func Dies(b []byte, s []mesh.DieID) []byte {
	b = append(b, '[')
	for i, d := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = d.AppendTo(b)
	}
	return append(b, ']')
}

// Regions appends s as %v prints a []placement.Region: "[{[(0,0)]} {[]}]".
func Regions(b []byte, s []placement.Region) []byte {
	b = append(b, '[')
	for i, r := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '{')
		b = Dies(b, r.Dies)
		b = append(b, '}')
	}
	return append(b, ']')
}

// Pairs appends s as %v prints a []recompute.MemPair, without field names
// ("[{0 1 2.5}]"), or with plusV as %+v prints it, with them
// ("[{Sender:0 Helper:1 Bytes:2.5}]").
func Pairs(b []byte, s []recompute.MemPair, plusV bool) []byte {
	sender, helper, bytes := "", " ", " "
	if plusV {
		sender, helper, bytes = "Sender:", " Helper:", " Bytes:"
	}
	b = append(b, '[')
	for i, p := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '{')
		b = append(b, sender...)
		b = Int(b, p.Sender)
		b = append(b, helper...)
		b = Int(b, p.Helper)
		b = append(b, bytes...)
		b = Float(b, p.Bytes)
		b = append(b, '}')
	}
	return append(b, ']')
}

// Plan appends p as %+v prints a recompute.Plan.
func Plan(b []byte, p *recompute.Plan) []byte {
	b = append(b, "{Choice:"...)
	b = Ints(b, p.Choice)
	b = append(b, " StageCkptBytes:"...)
	b = Floats(b, p.StageCkptBytes)
	b = append(b, " ExtraBwd:"...)
	b = Floats(b, p.ExtraBwd)
	b = append(b, " MaxStageTime:"...)
	b = Float(b, p.MaxStageTime)
	b = append(b, " Senders:"...)
	b = Ints(b, p.Senders)
	b = append(b, " Helpers:"...)
	b = Ints(b, p.Helpers)
	b = append(b, " Pairs:"...)
	b = Pairs(b, p.Pairs, true)
	b = append(b, " OverflowBytes:"...)
	b = Float(b, p.OverflowBytes)
	return append(b, '}')
}

// Allocations appends s as %v prints a []memalloc.Allocation:
// "[{0 (1,2) 2.5 3}]".
func Allocations(b []byte, s []memalloc.Allocation) []byte {
	b = append(b, '[')
	for i, a := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '{')
		b = Int(b, a.Sender)
		b = append(b, ' ')
		b = a.Die.AppendTo(b)
		b = append(b, ' ')
		b = Float(b, a.Bytes)
		b = append(b, ' ')
		b = Int(b, a.Hops)
		b = append(b, '}')
	}
	return append(b, ']')
}

// A Reporter appends sim.Reports as %+v prints them. It sorts each map's
// entries in scratch slices that it reuses across every report it renders;
// the zero value is ready to use.
type Reporter struct {
	dies  []entry[mesh.DieID]
	links []entry[mesh.Link]
}

// entry is one map entry, collected for sorting.
type entry[K any] struct {
	key K
	val float64
}

// Append appends r as %+v prints a sim.Report.
func (rs *Reporter) Append(b []byte, r *sim.Report) []byte {
	b = append(b, "{IterationTime:"...)
	b = Float(b, r.IterationTime)
	b = append(b, " Throughput:"...)
	b = Float(b, r.Throughput)
	b = append(b, " TotalThroughput:"...)
	b = Float(b, r.TotalThroughput)
	b = append(b, " RecomputeFraction:"...)
	b = Float(b, r.RecomputeFraction)
	b = append(b, " BubbleFraction:"...)
	b = Float(b, r.BubbleFraction)
	b = append(b, " ComputeUtilization:"...)
	b = Float(b, r.ComputeUtilization)
	b = append(b, " DRAMUtilization:"...)
	b = Float(b, r.DRAMUtilization)
	b = append(b, " MeanLinkUtilization:"...)
	b = Float(b, r.MeanLinkUtilization)
	b = append(b, " PerDieMemory:"...)
	b = appendMap(b, &rs.dies, r.PerDieMemory, byDie)
	b = append(b, " PerStage:["...)
	for i := range r.PerStage {
		if i > 0 {
			b = append(b, ' ')
		}
		b = rs.stage(b, &r.PerStage[i])
	}
	b = append(b, "] DP:"...)
	b = Int(b, r.DP)
	b = append(b, " MicroBatches:"...)
	b = Int(b, r.MicroBatches)
	return append(b, '}')
}

// stage appends s as %+v prints an engine.StageCompute.
func (rs *Reporter) stage(b []byte, s *engine.StageCompute) []byte {
	b = append(b, "{Layers:"...)
	b = Int(b, s.Layers)
	b = append(b, " FwdCompute:"...)
	b = Float(b, s.FwdCompute)
	b = append(b, " BwdCompute:"...)
	b = Float(b, s.BwdCompute)
	b = append(b, " FwdCollective:"...)
	b = Float(b, s.FwdCollective)
	b = append(b, " BwdCollective:"...)
	b = Float(b, s.BwdCollective)
	b = append(b, " RecomputeExtra:"...)
	b = Float(b, s.RecomputeExtra)
	b = append(b, " DRAMBytes:"...)
	b = Float(b, s.DRAMBytes)
	b = append(b, " CollectiveLinkBytes:"...)
	b = appendMap(b, &rs.links, s.CollectiveLinkBytes, byLink)
	b = append(b, " MeanLinkUtilization:"...)
	b = Float(b, s.MeanLinkUtilization)
	return append(b, '}')
}

// appendMap appends m as %v prints it, its entries sorted by compare in
// *scratch.
func appendMap[K interface {
	comparable
	AppendTo([]byte) []byte
}](b []byte, scratch *[]entry[K], m map[K]float64, compare func(a, b entry[K]) int) []byte {
	es := slices.Grow((*scratch)[:0], len(m))
	for k, v := range m {
		es = append(es, entry[K]{k, v})
	}
	slices.SortFunc(es, compare)
	*scratch = es
	b = append(b, "map["...)
	for i, e := range es {
		if i > 0 {
			b = append(b, ' ')
		}
		b = e.key.AppendTo(b)
		b = append(b, ':')
		b = Float(b, e.val)
	}
	return append(b, ']')
}

func byDie(a, b entry[mesh.DieID]) int { return compareDies(a.key, b.key) }

func byLink(a, b entry[mesh.Link]) int {
	if c := compareDies(a.key.From, b.key.From); c != 0 {
		return c
	}
	return compareDies(a.key.To, b.key.To)
}

func compareDies(a, b mesh.DieID) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// buffers pools render buffers, as fmt pools its printers: a text renders
// into a buffer that earlier renders have grown and is copied out once, so
// a render allocates little besides the string it returns.
var buffers = sync.Pool{New: func() any { return new([]byte) }}

// Render returns what appendTo appends to an empty pooled buffer, as a
// string of exactly that length: a long-lived record keeps no spare
// capacity alive.
func Render(appendTo func([]byte) []byte) string {
	bp := buffers.Get().(*[]byte)
	b := appendTo((*bp)[:0])
	s := string(b)
	*bp = b
	buffers.Put(bp)
	return s
}
