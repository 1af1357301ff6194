package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values (0 for
// an empty sample).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// nearestRank returns the p-th percentile of an ascending sample by the
// nearest-rank rule: the smallest value with at least p% of the sample at or
// below it.
func nearestRank(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples of an ascending sample strictly above v.
func beyond(s []float64, v float64) int {
	return len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// tailSamples is how many samples must lie beyond the tail percentile.
const tailSamples = 10

// tail picks the highest whole percentile from 99 down to 50 that has at
// least tailSamples samples strictly beyond it, and returns that percentile,
// its value, and the samples beyond it. A sample too small for any such
// percentile reports p50 with however many samples lie beyond it.
func tail(xs []float64) (pct int, value float64, n int) {
	s := sorted(xs)
	for p := 99; p >= 50; p-- {
		v := nearestRank(s, float64(p))
		if b := beyond(s, v); b >= tailSamples {
			return p, v, b
		}
	}
	v := nearestRank(s, 50)
	return 50, v, beyond(s, v)
}

// groupMedians values each sample at the median of all samples that share
// its key. A run repeats each of its distinct ops several times; valued
// this way, one call slowed by the host no longer decides which value a
// percentile lands on, while a change that makes an op slower or faster
// moves all of that op's samples.
func groupMedians(xs []float64, keys []string) []float64 {
	groups := map[string][]float64{}
	for i, x := range xs {
		groups[keys[i]] = append(groups[keys[i]], x)
	}
	med := make(map[string]float64, len(groups))
	for k, g := range groups {
		med[k] = median(g)
	}
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = med[keys[i]]
	}
	return out
}

// tailValue is tail's value alone.
func tailValue(xs []float64) float64 {
	_, v, _ := tail(xs)
	return v
}

// geomean is the geometric mean of positive values (0 if any is not).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// sum adds xs up.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
