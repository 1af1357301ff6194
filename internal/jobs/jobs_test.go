package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// handle is the test payload: a sweep-like record with a shared slice, so
// the clone function is load-bearing.
type handle struct {
	ID    string
	State string
	Legs  []int
}

func (h handle) Terminal() bool { return h.State == "done" || h.State == "failed" }

func cloneHandle(h handle) handle {
	h.Legs = append([]int(nil), h.Legs...)
	return h
}

func newTestStore(opts Options) (*Store[handle], *time.Time) {
	s := NewStore[handle](opts, cloneHandle)
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }
	return s, &clock
}

func mustCreate(t *testing.T, s *Store[handle]) string {
	t.Helper()
	id, _ := s.Create(func(id string) handle { return handle{ID: id, State: "running", Legs: []int{0}} })
	return id
}

func finish(t *testing.T, s *Store[handle], id string) {
	t.Helper()
	if err := s.Update(id, func(h *handle) { h.State = "done" }); err != nil {
		t.Fatalf("finish %s: %v", id, err)
	}
}

// TestStoreLifecycle checks create → update → terminal round-trips and that
// reads are defensive copies.
func TestStoreLifecycle(t *testing.T) {
	s, _ := newTestStore(Options{Prefix: "swp"})
	id := mustCreate(t, s)
	if id != "swp-1" {
		t.Fatalf("first ID = %q, want swp-1", id)
	}
	got, err := s.Get(id)
	if err != nil || got.State != "running" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	got.Legs[0] = 99 // mutating the copy must not touch the stored handle
	if again, _ := s.Get(id); again.Legs[0] != 0 {
		t.Error("Get returned a shared slice, not a clone")
	}
	finish(t, s, id)
	if got, _ := s.Get(id); got.State != "done" {
		t.Errorf("state after update = %q, want done", got.State)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

// TestStoreGoneVsUnknown pins the 410/404 distinction: an issued-then-
// evicted ID reports ErrGone, a never-issued ID reports ErrUnknown.
func TestStoreGoneVsUnknown(t *testing.T) {
	s, _ := newTestStore(Options{Prefix: "swp", MaxEntries: 1})
	a := mustCreate(t, s)
	finish(t, s, a)
	b := mustCreate(t, s) // cap 1: creating b evicts terminal a
	if _, err := s.Get(a); !errors.Is(err, ErrGone) {
		t.Errorf("evicted handle: err = %v, want ErrGone", err)
	}
	if _, err := s.Get(b); err != nil {
		t.Errorf("live handle: err = %v", err)
	}
	for _, id := range []string{"swp-999", "job-1", "swp-", "swp-x", ""} {
		if _, err := s.Get(id); !errors.Is(err, ErrUnknown) {
			t.Errorf("never-issued %q: err = %v, want ErrUnknown", id, err)
		}
	}
	if err := s.Update(a, func(h *handle) {}); !errors.Is(err, ErrGone) {
		t.Errorf("Update on evicted handle: err = %v, want ErrGone", err)
	}
}

// TestStoreMaxEntriesEvictsOldestFinished checks the cap evicts in finish
// order, not issue order, and never evicts a live handle.
func TestStoreMaxEntriesEvictsOldestFinished(t *testing.T) {
	s, clock := newTestStore(Options{MaxEntries: 2})
	a := mustCreate(t, s)
	b := mustCreate(t, s)
	// b finishes first, then a; both still fit under the cap.
	finish(t, s, b)
	*clock = clock.Add(time.Second)
	finish(t, s, a)
	// c takes the store over its cap: the cap must claim b (earliest
	// finished) even though a was issued first.
	c := mustCreate(t, s)
	if _, err := s.Get(b); !errors.Is(err, ErrGone) {
		t.Errorf("earliest-finished handle b: err = %v, want ErrGone", err)
	}
	if _, err := s.Get(a); err != nil {
		t.Errorf("later-finished handle a evicted: %v", err)
	}
	// d claims the last terminal handle (a); with c, d and e all live the
	// cap is exceeded rather than evict one of them.
	d := mustCreate(t, s)
	e := mustCreate(t, s)
	if s.Len() != 3 {
		t.Fatalf("Len = %d with 3 live handles and cap 2, want 3 (live never evicted)", s.Len())
	}
	for _, id := range []string{c, d, e} {
		if _, err := s.Get(id); err != nil {
			t.Errorf("live handle %s evicted: %v", id, err)
		}
	}
	if s.Evicted() != 2 {
		t.Errorf("Evicted = %d, want 2", s.Evicted())
	}
}

// TestStoreTTL checks terminal handles expire after the TTL while live
// handles never do, and that expiry reports ErrGone.
func TestStoreTTL(t *testing.T) {
	s, clock := newTestStore(Options{TTL: time.Minute})
	done := mustCreate(t, s)
	live := mustCreate(t, s)
	finish(t, s, done)
	*clock = clock.Add(59 * time.Second)
	if _, err := s.Get(done); err != nil {
		t.Fatalf("handle expired before its TTL: %v", err)
	}
	*clock = clock.Add(2 * time.Second)
	if _, err := s.Get(done); !errors.Is(err, ErrGone) {
		t.Errorf("expired handle: err = %v, want ErrGone", err)
	}
	if _, err := s.Get(live); err != nil {
		t.Errorf("live handle expired: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after expiry, want 1", s.Len())
	}

	// TTL < 0 disables expiry entirely.
	forever, clock2 := newTestStore(Options{TTL: -1})
	id := mustCreate(t, forever)
	finish(t, forever, id)
	*clock2 = clock2.Add(1000 * time.Hour)
	if _, err := forever.Get(id); err != nil {
		t.Errorf("TTL<0 store expired a handle: %v", err)
	}
}

// TestStoreEach checks iteration order (issue order) and copy semantics.
func TestStoreEach(t *testing.T) {
	s, _ := newTestStore(Options{Prefix: "swp"})
	for i := 0; i < 3; i++ {
		mustCreate(t, s)
	}
	var ids []string
	s.Each(func(id string, h handle) {
		ids = append(ids, id)
		h.Legs[0] = 42
	})
	want := []string{"swp-1", "swp-2", "swp-3"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("Each order = %v, want %v", ids, want)
	}
	if h, _ := s.Get("swp-1"); h.Legs[0] != 0 {
		t.Error("Each leaked a mutable reference")
	}
}

// TestStoreConcurrentUpdates checks updates from racing goroutines all land
// (the store lock serializes payload access).
func TestStoreConcurrentUpdates(t *testing.T) {
	s := NewStore[handle](Options{}, cloneHandle)
	id, _ := s.Create(func(id string) handle { return handle{ID: id, State: "running", Legs: make([]int, 1)} })
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Update(id, func(h *handle) { h.Legs[0]++ })
			}
		}()
	}
	wg.Wait()
	if h, _ := s.Get(id); h.Legs[0] != 1600 {
		t.Errorf("Legs[0] = %d after 1600 updates, want 1600", h.Legs[0])
	}
}

// blockedProbe is a context that reports when Wait has looked the handle up
// and is about to block: Wait reads Done only after its lookup.
type blockedProbe struct {
	context.Context
	once    sync.Once
	blocked chan struct{}
}

func newBlockedProbe(ctx context.Context) *blockedProbe {
	return &blockedProbe{Context: ctx, blocked: make(chan struct{})}
}

func (p *blockedProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.blocked) })
	return p.Context.Done()
}

type waitResult struct {
	h   handle
	err error
}

// startWait runs Wait in the background and returns once it is blocked.
func startWait(s *Store[handle], ctx context.Context, id string) <-chan waitResult {
	probe := newBlockedProbe(ctx)
	out := make(chan waitResult, 1)
	go func() {
		h, err := s.Wait(probe, id)
		out <- waitResult{h, err}
	}()
	<-probe.blocked
	return out
}

// TestStoreWait checks Wait blocks until the handle goes terminal, returns
// the terminal copy, and returns at once for a handle already terminal.
func TestStoreWait(t *testing.T) {
	s, _ := newTestStore(Options{Prefix: "swp"})
	id := mustCreate(t, s)
	got := startWait(s, context.Background(), id)
	select {
	case r := <-got:
		t.Fatalf("Wait returned %+v, %v before the handle went terminal", r.h, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	finish(t, s, id)
	select {
	case r := <-got:
		if r.err != nil || r.h.State != "done" {
			t.Errorf("Wait = %+v, %v; want the done handle", r.h, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not wake when the handle went terminal")
	}
	if h, err := s.Wait(context.Background(), id); err != nil || h.State != "done" {
		t.Errorf("Wait on a terminal handle = %+v, %v", h, err)
	}
}

// TestStoreWaitCancel checks Wait on a live handle returns ctx.Err() when
// its context ends.
func TestStoreWaitCancel(t *testing.T) {
	s, _ := newTestStore(Options{})
	id := mustCreate(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	got := startWait(s, ctx, id)
	cancel()
	select {
	case r := <-got:
		if !errors.Is(r.err, context.Canceled) {
			t.Errorf("cancelled Wait err = %v, want context.Canceled", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait ignored its cancelled context")
	}
	if h, _ := s.Get(id); h.State != "running" {
		t.Errorf("cancelled Wait touched the handle: state %q", h.State)
	}
}

// TestStoreWaitOutlivesEviction checks a waiter still gets the final record
// when the handle is evicted by the same Update that took it terminal, and
// that Wait answers ErrGone and ErrUnknown at once for evicted and
// never-issued IDs.
func TestStoreWaitOutlivesEviction(t *testing.T) {
	s, _ := newTestStore(Options{Prefix: "swp", MaxEntries: 1})
	a := mustCreate(t, s)
	mustCreate(t, s) // a live second handle keeps the store over its cap
	got := startWait(s, context.Background(), a)
	finish(t, s, a) // terminal and, over the cap, evicted in one Update
	if _, err := s.Get(a); !errors.Is(err, ErrGone) {
		t.Fatalf("finished handle over the cap: err = %v, want ErrGone", err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.h.State != "done" || r.h.ID != a {
			t.Errorf("waiter on the evicted handle = %+v, %v; want its done record", r.h, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter on the evicted handle never woke")
	}
	for id, want := range map[string]error{a: ErrGone, "swp-99": ErrUnknown, "job-1": ErrUnknown} {
		if _, err := s.Wait(context.Background(), id); !errors.Is(err, want) {
			t.Errorf("Wait(%s) err = %v, want %v", id, err, want)
		}
	}
}
