// Package jobs provides the durable-handle half of the async job subsystem
// shared by watosd and watos-router: a generic, bounded store of pollable
// handles (watosd's job records and both tiers' async sweep handles).
//
// A handle outlives the HTTP request that created it — POST returns 202
// plus an ID, GET polls the handle until it goes terminal — so the store,
// unlike a request-scoped object, must bound its own growth: terminal
// handles are evicted by TTL and by a max-entries cap (oldest finished
// first), while live handles are never evicted. Eviction is distinguishable
// from nonsense: handle IDs are issued from a monotonic per-store sequence,
// so a missing ID at or below the sequence was provably issued and evicted
// (ErrGone → HTTP 410), whereas an ID above it or with a foreign prefix was
// never issued (ErrUnknown → HTTP 404). A poller therefore learns "your
// result existed and aged out — resubmit" rather than retrying a 404
// forever.
//
// The store also owns waiting: every handle carries a done channel that the
// Update taking it terminal closes, and Wait blocks on it. A waiter holds
// the handle itself, so it still gets the final record if the handle is
// evicted after going terminal.
package jobs

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Handle is the constraint on stored payloads: the store needs to know when
// a handle has gone terminal to start its retention clock and to spare live
// handles from eviction.
type Handle interface {
	Terminal() bool
}

// ErrUnknown reports an ID this store never issued.
var ErrUnknown = errors.New("jobs: unknown handle")

// ErrGone reports an ID that was issued but whose handle has been evicted
// (TTL or max-entries) — the HTTP 410 signal.
var ErrGone = errors.New("jobs: handle evicted")

// Options configure a Store.
type Options struct {
	// Prefix names the handle IDs ("<prefix>-<n>"); default "h".
	Prefix string
	// TTL bounds how long a terminal handle stays pollable (default 15
	// minutes; negative = no TTL, only MaxEntries bounds retention). Live
	// handles never expire.
	TTL time.Duration
	// MaxEntries caps retained handles (default 256). Only terminal
	// handles are evicted (oldest finished first); the cap is exceeded
	// rather than evict a live handle.
	MaxEntries int
}

type entry[T Handle] struct {
	v        T
	created  time.Time
	finished time.Time     // zero while live
	done     chan struct{} // closed when the handle goes terminal
}

// Store is a bounded, concurrency-safe map of durable handles. All payload
// access goes through the store's lock: Update mutates in place, Get/Each
// return defensive copies via the clone function given at construction (nil
// = shallow copy, correct only for payloads without shared references).
type Store[T Handle] struct {
	opts  Options
	clone func(T) T

	mu      sync.Mutex
	seq     uint64
	entries map[string]*entry[T]
	order   []string // issue order; eviction scans oldest-first
	evicted uint64
	now     func() time.Time // test hook
}

// NewStore returns an empty Store. clone deep-copies a payload for reads
// taken outside the store lock; nil means the payload is safe to copy
// shallowly.
func NewStore[T Handle](opts Options, clone func(T) T) *Store[T] {
	if opts.Prefix == "" {
		opts.Prefix = "h"
	}
	if opts.TTL == 0 {
		opts.TTL = 15 * time.Minute
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 256
	}
	if clone == nil {
		clone = func(v T) T { return v }
	}
	return &Store[T]{
		opts:    opts,
		clone:   clone,
		entries: make(map[string]*entry[T]),
		now:     time.Now,
	}
}

// Create issues the next handle ID and stores build(id). It returns the ID
// and a copy of the stored payload.
func (s *Store[T]) Create(build func(id string) T) (string, T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := s.opts.Prefix + "-" + strconv.FormatUint(s.seq, 10)
	e := &entry[T]{v: build(id), created: s.now(), done: make(chan struct{})}
	if e.v.Terminal() {
		e.finished = e.created
		close(e.done)
	}
	s.entries[id] = e
	s.order = append(s.order, id)
	s.evictLocked()
	return id, s.clone(e.v)
}

// Get returns a copy of the handle, ErrGone for an evicted (or TTL-expired)
// handle, or ErrUnknown for an ID this store never issued.
func (s *Store[T]) Get(id string) (T, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(id)
	if err != nil {
		var zero T
		return zero, err
	}
	return s.clone(e.v), nil
}

// Update mutates the handle under the store lock. A mutation that takes the
// handle terminal stamps the retention clock, wakes the handle's waiters and
// triggers eviction.
func (s *Store[T]) Update(id string, fn func(v *T)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, err := s.lookupLocked(id)
	if err != nil {
		return err
	}
	fn(&e.v)
	if e.v.Terminal() && e.finished.IsZero() {
		e.finished = s.now()
		close(e.done)
		s.evictLocked()
	}
	return nil
}

// Wait blocks until the handle goes terminal or ctx ends, and returns a copy
// of the terminal handle. An ID that is already evicted or was never issued
// answers ErrGone or ErrUnknown at once; a handle evicted while the waiter
// blocks still answers with its final state.
func (s *Store[T]) Wait(ctx context.Context, id string) (T, error) {
	var zero T
	s.mu.Lock()
	e, err := s.lookupLocked(id)
	s.mu.Unlock()
	if err != nil {
		return zero, err
	}
	select {
	case <-e.done:
	case <-ctx.Done():
		return zero, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clone(e.v), nil
}

// Each calls fn with a copy of every retained handle, oldest first.
func (s *Store[T]) Each(fn func(id string, v T)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	for _, id := range s.order {
		fn(id, s.clone(s.entries[id].v))
	}
}

// Len returns the number of retained handles.
func (s *Store[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked()
	return len(s.entries)
}

// Evicted returns the count of handles dropped by TTL or max-entries.
func (s *Store[T]) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// lookupLocked resolves an ID, expiring it first if its TTL has lapsed.
func (s *Store[T]) lookupLocked(id string) (*entry[T], error) {
	if e, ok := s.entries[id]; ok {
		if s.expiredLocked(e) {
			s.dropLocked(id)
			return nil, ErrGone
		}
		return e, nil
	}
	// Missing: was this ID ever issued? The monotonic sequence answers
	// without tombstones.
	if n, ok := strings.CutPrefix(id, s.opts.Prefix+"-"); ok {
		if v, err := strconv.ParseUint(n, 10, 64); err == nil && v >= 1 && v <= s.seq {
			return nil, ErrGone
		}
	}
	return nil, ErrUnknown
}

func (s *Store[T]) expiredLocked(e *entry[T]) bool {
	return s.opts.TTL > 0 && !e.finished.IsZero() && s.now().Sub(e.finished) >= s.opts.TTL
}

// expireLocked drops every TTL-expired terminal handle.
func (s *Store[T]) expireLocked() {
	if s.opts.TTL <= 0 {
		return
	}
	for _, id := range append([]string(nil), s.order...) {
		if s.expiredLocked(s.entries[id]) {
			s.dropLocked(id)
		}
	}
}

// evictLocked enforces TTL and the max-entries cap: expired handles go
// first, then the oldest-finished terminal handles until the cap holds.
// Live handles are never evicted — the cap is allowed to overflow instead,
// because dropping a handle someone is still polling trades a bounded
// memory overage for a lost result.
func (s *Store[T]) evictLocked() {
	s.expireLocked()
	excess := len(s.entries) - s.opts.MaxEntries
	if excess <= 0 {
		return
	}
	type victim struct {
		id       string
		finished time.Time
	}
	var terminal []victim
	for _, id := range s.order {
		if e := s.entries[id]; !e.finished.IsZero() {
			terminal = append(terminal, victim{id, e.finished})
		}
	}
	// order is issue order, not finish order; evict the earliest-finished.
	for excess > 0 && len(terminal) > 0 {
		oldest := 0
		for i := 1; i < len(terminal); i++ {
			if terminal[i].finished.Before(terminal[oldest].finished) {
				oldest = i
			}
		}
		s.dropLocked(terminal[oldest].id)
		terminal = append(terminal[:oldest], terminal[oldest+1:]...)
		excess--
	}
}

func (s *Store[T]) dropLocked(id string) {
	delete(s.entries, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.evicted++
}
