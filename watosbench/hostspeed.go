package main

import (
	"math"
	"slices"
	"time"
)

// refNominal is the reference kernel's median time on the 2-vCPU host the
// benchmark was tuned on. Host times are reported as they would read on a
// host where the kernel takes exactly this long.
const refNominal = 1400 * time.Microsecond

// hostSpeed tracks how fast the host runs while a run measures. The
// benchmark times a fixed, allocation-free kernel of its own (fill a buffer
// from an xorshift stream, sort it, fold it) before every op. Its median
// over the run moves with the host's speed — neighbours on a shared machine
// slow the whole run by tens of percent for minutes at a time — but never
// with the program under test, which it does not call.
type hostSpeed struct {
	buf     []float64
	sink    float64
	samples []float64 // ms
}

func newHostSpeed() *hostSpeed { return &hostSpeed{buf: make([]float64, 1<<14)} }

// kernelSamples is roughly how many kernel passes a run takes between its
// ops; sample spreads them evenly over the op count so a short run of slow
// ops (sweep-ga) gets as good an estimate as a long run of fast ones.
const kernelSamples = 400

// sample times the kernel before one of a run's n ops.
func (h *hostSpeed) sample(n int) {
	for i := 0; i < max(1, kernelSamples/n); i++ {
		h.once()
	}
}

// once times one pass of the kernel.
func (h *hostSpeed) once() {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := range h.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.buf[i] = float64(x>>11) * 0x1p-53
	}
	slices.Sort(h.buf)
	s := 0.0
	for _, v := range h.buf {
		s += math.Sqrt(v)
	}
	h.sink += s
	h.samples = append(h.samples, ms(time.Since(start)))
}

// scale converts this run's host times to the nominal host: a run on a host
// that ran the kernel 20% slow has its times scaled by 1/1.2.
func (h *hostSpeed) scale() float64 {
	return ratio(ms(refNominal), median(h.samples))
}
