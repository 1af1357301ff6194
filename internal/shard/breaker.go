package shard

import (
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/service/client"
)

// Per-shard circuit breakers close the gap the health probe leaves open: a
// shard whose /v1/healthz still answers in time but whose data path has gone
// bad — erroring on submissions, or slow-but-alive (GC thrash, disk stall,
// noisy neighbour) — keeps passing probes and so keeps receiving its share of
// routed work, every piece of which then costs the full request timeout.
//
// The breaker watches the transport round-trips the router actually makes to
// the shard (submit, status poll, stats) and trips on either signal the probe
// cannot see:
//
//   - error rate: the fraction of failed round-trips over a rolling window
//     crosses ErrorRate, or
//   - tail latency: the window's p95 round-trip time crosses LatencyP95.
//
// An open breaker takes the shard out of routing (PickReplicas skips it) for
// Cooldown, then goes half-open: exactly one trial request is admitted, and
// its outcome alone decides — success closes the breaker (window reset),
// failure re-opens it for another cooldown. Health probes never feed the
// breaker; the two exclusion mechanisms are deliberately independent.

// BreakerOptions tune one backend's circuit breaker.
type BreakerOptions struct {
	// Window is the rolling outcome window size (default 20 round-trips).
	Window int
	// MinSamples is the minimum window occupancy before the breaker may trip
	// (default 8) — a single failed call after an idle stretch is not a
	// brownout.
	MinSamples int
	// ErrorRate trips the breaker when failures/window reaches it (default
	// 0.5; above 1 the error-rate signal never trips).
	ErrorRate float64
	// LatencyP95 trips the breaker when the window's p95 round-trip latency
	// reaches it (default 2s; 0 keeps the default, negative disables the
	// latency signal). Only bounded single-round-trip calls feed latency;
	// calls whose duration tracks job runtime (Wait) contribute outcome only.
	LatencyP95 time.Duration
	// Cooldown is how long an open breaker blocks routing before admitting a
	// half-open trial (default 5s).
	Cooldown time.Duration
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Window <= 0 {
		o.Window = 20
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	if o.MinSamples > o.Window {
		o.MinSamples = o.Window
	}
	if o.ErrorRate <= 0 {
		o.ErrorRate = 0.5
	}
	if o.LatencyP95 == 0 {
		o.LatencyP95 = 2 * time.Second
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	return o
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type breakerSample struct {
	lat    time.Duration
	hasLat bool
	fail   bool
}

// Breaker is one backend's rolling-window circuit breaker. Every shard has
// one; the zero value is not usable (build it with newBreaker).
type Breaker struct {
	opts BreakerOptions

	mu       sync.Mutex
	state    int
	window   []breakerSample // ring buffer, next is the write cursor
	next     int
	count    int
	fails    int
	openedAt time.Time
	opened   uint64 // lifetime closed/half-open -> open transitions
	trial    bool   // half-open trial currently in flight
	lastErr  string
}

// BreakerStatus is a breaker's externally visible state (part of shard
// Status / router stats).
type BreakerStatus struct {
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// WindowSamples / WindowFailures describe the rolling outcome window.
	WindowSamples  int `json:"window_samples"`
	WindowFailures int `json:"window_failures,omitempty"`
	// WindowP95MS is the window's p95 round-trip latency in milliseconds
	// (latency-bearing samples only; 0 when none).
	WindowP95MS float64 `json:"window_p95_ms,omitempty"`
	// TimesOpened counts lifetime trips.
	TimesOpened uint64 `json:"times_opened,omitempty"`
	// LastError is the failure that contributed most recently.
	LastError string `json:"last_error,omitempty"`
	// RetryInMS is how long until an open breaker admits its half-open trial
	// (0 unless open).
	RetryInMS int64 `json:"retry_in_ms,omitempty"`
}

func newBreaker(o BreakerOptions) *Breaker {
	o = o.withDefaults()
	return &Breaker{opts: o, window: make([]breakerSample, o.Window)}
}

// breakerFailure classifies a client-call error for the breaker: transport
// failures and server-side 5xx (500/502/503) count; deliberate per-request
// answers (4xx — including 429 shedding, which is admission control doing its
// job, not the shard failing) do not.
func breakerFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *client.StatusError
	if errors.As(err, &se) {
		switch se.Code {
		case http.StatusInternalServerError, http.StatusBadGateway, http.StatusServiceUnavailable:
			return true
		}
		return false
	}
	return true // transport-level
}

// Allow reports whether a request may be sent through the breaker, consuming
// the single half-open trial slot when the cooldown has elapsed. Callers that
// only want to filter without claiming the trial use Routable.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.opts.Cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.trial = true
		return true
	default: // half-open
		if b.trial {
			return false
		}
		b.trial = true
		return true
	}
}

// Routable reports whether the breaker would admit a request right now,
// without claiming the half-open trial slot (used when building replica
// chains; the sender claims the slot via Allow).
func (b *Breaker) Routable() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return time.Since(b.openedAt) >= b.opts.Cooldown
	default:
		return !b.trial
	}
}

// Observe records one bounded round-trip: its latency and whether it failed
// (per breakerFailure).
func (b *Breaker) Observe(d time.Duration, err error) {
	b.record(breakerSample{lat: d, hasLat: true, fail: breakerFailure(err)}, err)
}

// ObserveOutcome records a success/failure whose duration is not a transport
// round-trip (e.g. Wait, which tracks job runtime): it feeds the error-rate
// signal but not the latency window.
func (b *Breaker) ObserveOutcome(err error) {
	b.record(breakerSample{fail: breakerFailure(err)}, err)
}

func (b *Breaker) record(s breakerSample, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.fail && err != nil {
		b.lastErr = err.Error()
	}
	switch b.state {
	case breakerOpen:
		// A straggler from before the trip; the cooldown clock is the only
		// path out of open.
		return
	case breakerHalfOpen:
		// The trial's verdict is the whole verdict.
		b.trial = false
		if s.fail {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.opened++
			return
		}
		b.state = breakerClosed
		b.resetWindowLocked()
		return
	}
	// Closed: roll the window and evaluate the trip conditions.
	old := b.window[b.next]
	if b.count == len(b.window) && old.fail {
		b.fails--
	}
	b.window[b.next] = s
	b.next = (b.next + 1) % len(b.window)
	if b.count < len(b.window) {
		b.count++
	}
	if s.fail {
		b.fails++
	}
	if b.count < b.opts.MinSamples {
		return
	}
	if float64(b.fails)/float64(b.count) >= b.opts.ErrorRate {
		b.tripLocked()
		return
	}
	if b.opts.LatencyP95 > 0 {
		if p95, n := b.p95Locked(); n >= b.opts.MinSamples && p95 >= b.opts.LatencyP95 {
			b.tripLocked()
		}
	}
}

func (b *Breaker) tripLocked() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.opened++
	b.trial = false
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = breakerSample{}
	}
	b.next, b.count, b.fails = 0, 0, 0
}

// p95Locked computes the p95 over the window's latency-bearing samples.
func (b *Breaker) p95Locked() (time.Duration, int) {
	lats := make([]time.Duration, 0, b.count)
	for i := 0; i < b.count; i++ {
		if s := b.window[i]; s.hasLat {
			lats = append(lats, s.lat)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := (len(lats)*95 + 99) / 100 // ceil(0.95*n)
	if idx > 0 {
		idx--
	}
	return lats[idx], len(lats)
}

// Snapshot returns the breaker's externally visible state.
func (b *Breaker) Snapshot() BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{
		WindowSamples:  b.count,
		WindowFailures: b.fails,
		TimesOpened:    b.opened,
		LastError:      b.lastErr,
	}
	if p95, n := b.p95Locked(); n > 0 {
		st.WindowP95MS = float64(p95) / float64(time.Millisecond)
	}
	switch b.state {
	case breakerClosed:
		st.State = "closed"
	case breakerOpen:
		st.State = "open"
		if rem := b.opts.Cooldown - time.Since(b.openedAt); rem > 0 {
			st.RetryInMS = int64(rem / time.Millisecond)
		}
	default:
		st.State = "half-open"
	}
	return st
}
