package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Spans of one op share its
// index; parent is the index of the enclosing span (-1 for an op's root).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the recorder's base
}

// recorder keeps the traced run's spans in memory; write puts them on disk
// when the run ends.
type recorder struct {
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// begin opens a span and returns its id. A nil recorder (an untraced run)
// records nothing.
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.base)})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r != nil {
		r.spans[id].end = time.Since(r.base)
	}
}

// add records an interval measured elsewhere (a server's job record).
func (r *recorder) add(name string, op, parent int, start, end time.Time) {
	r.spans = append(r.spans, span{name: name, op: op, parent: parent,
		start: start.Sub(r.base), end: end.Sub(r.base)})
}

// layerTotal is one span name's aggregate.
type layerTotal struct {
	self  time.Duration
	calls int
}

// totals aggregates self time and call count per span name. A span's self
// time is its duration minus the union of its children's intervals clipped
// to it.
func (r *recorder) totals() map[string]layerTotal {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]layerTotal{}
	for i, s := range r.spans {
		t := out[s.name]
		t.self += s.end - s.start - covered(r.spans, children[i], s.start, s.end)
		t.calls++
		out[s.name] = t
	}
	return out
}

// covered is the length of the union of the given spans' intervals inside
// [lo, hi].
func covered(spans []span, ids []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, reach time.Duration
	for _, v := range ivs {
		if v.a < reach {
			v.a = reach
		}
		if v.b > v.a {
			sum += v.b - v.a
			reach = v.b
		}
	}
	return sum
}

// spanCost measures what recording one span costs on this host: a burst of
// begin/end pairs into a scratch recorder.
func spanCost() time.Duration {
	const n = 50_000
	scratch := &recorder{base: time.Now(), spans: make([]span, 0, n)}
	start := time.Now()
	for i := 0; i < n; i++ {
		scratch.end(scratch.begin("x", i, -1))
	}
	return time.Since(start) / n
}

// write stores the spans as tab-separated rows (name, op, parent, start and
// end in nanoseconds since the run's trace base).
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\top\tparent\tstart_ns\tend_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.op, s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
