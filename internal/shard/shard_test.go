package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// toggleShard is a fake daemon whose /v1/healthz can be flipped down.
type toggleShard struct {
	ts *httptest.Server
	up atomic.Bool
}

func newToggleShard(t *testing.T) *toggleShard {
	sh := &toggleShard{}
	sh.up.Store(true)
	sh.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sh.up.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"status":"ok"}`))
	}))
	t.Cleanup(sh.ts.Close)
	return sh
}

func (sh *toggleShard) addr() string { return strings.TrimPrefix(sh.ts.URL, "http://") }

// TestMapStableRouting pins the routing contract: the same fingerprint
// picks the same shard on every call and on a rebuilt map, and fingerprints
// spread across the fleet.
func TestMapStableRouting(t *testing.T) {
	addrs := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080"}
	m := NewMap(addrs, Options{})
	defer m.Close()

	owner := map[string]string{}
	seen := map[string]int{}
	for i := 0; i < 100; i++ {
		fp := fmt.Sprintf("m=Llama2-30B|c=config3|seed=%d", i)
		b, err := pick(m, fp)
		if err != nil {
			t.Fatal(err)
		}
		owner[fp] = b.Name
		seen[b.Name]++
		for rep := 0; rep < 3; rep++ {
			if again, _ := pick(m, fp); again.Name != b.Name {
				t.Fatalf("fingerprint %q routed to %s then %s", fp, b.Name, again.Name)
			}
		}
	}
	if len(seen) != len(addrs) {
		t.Errorf("100 fingerprints used %d of %d shards: %v", len(seen), len(addrs), seen)
	}

	// A rebuilt map over the same addresses routes identically — the
	// assignment lives in the (fingerprint, addr) hashes, not map state.
	m2 := NewMap(addrs, Options{})
	defer m2.Close()
	for fp, want := range owner {
		if b, _ := pick(m2, fp); b.Name != want {
			t.Errorf("rebuilt map routes %q to %s, original to %s", fp, b.Name, want)
		}
	}

	// Excluding one shard moves only its fingerprints.
	excluded := m.Backends()[1]
	excluded.MarkFailed(fmt.Errorf("connection refused"))
	for fp, was := range owner {
		b, err := pick(m, fp)
		if err != nil {
			t.Fatal(err)
		}
		if was != "s1" && b.Name != was {
			t.Errorf("fingerprint %q moved %s -> %s when unrelated s1 left", fp, was, b.Name)
		}
		if was == "s1" && b.Name == "s1" {
			t.Errorf("fingerprint %q still routed to excluded s1", fp)
		}
	}
}

// TestMapHealthExclusionReadmission drives the probe loop's state machine:
// FailAfter consecutive failures exclude a shard, one success readmits it.
func TestMapHealthExclusionReadmission(t *testing.T) {
	a, b := newToggleShard(t), newToggleShard(t)
	m := NewMap([]string{a.addr(), b.addr()}, Options{FailAfter: 2, ProbeTimeout: time.Second})
	defer m.Close()
	ctx := context.Background()

	m.Probe(ctx)
	if got := len(m.Healthy()); got != 2 {
		t.Fatalf("healthy shards after first probe = %d, want 2", got)
	}

	b.up.Store(false)
	m.Probe(ctx)
	if got := len(m.Healthy()); got != 2 {
		t.Errorf("one failed probe below FailAfter=2 already excluded: healthy = %d", got)
	}
	m.Probe(ctx)
	healthy := m.Healthy()
	if len(healthy) != 1 || healthy[0].Name != "s0" {
		t.Fatalf("after %d failed probes healthy = %v, want only s0", 2, names(healthy))
	}
	var st Status
	for _, s := range m.Statuses() {
		if s.Name == "s1" {
			st = s
		}
	}
	if st.Healthy || st.Failures != 2 || st.LastError == "" {
		t.Errorf("excluded shard status = %+v, want unhealthy with 2 failures and an error", st)
	}

	// Recovery: a single successful probe readmits the shard.
	b.up.Store(true)
	m.Probe(ctx)
	if got := len(m.Healthy()); got != 2 {
		t.Errorf("recovered shard not readmitted: healthy = %d, want 2", got)
	}

	// The background loop does the same without explicit probes.
	a.up.Store(false)
	m2 := NewMap([]string{a.addr(), b.addr()}, Options{
		HealthInterval: 10 * time.Millisecond, FailAfter: 1, ProbeTimeout: time.Second,
	})
	m2.Start()
	defer m2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(m2.Healthy()) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never excluded the downed shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.up.Store(true)
	for len(m2.Healthy()) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("health loop never readmitted the recovered shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMapAdd checks mid-run joins: a new shard gets a fresh name, duplicate
// addresses are refused, and routing immediately includes the joiner.
func TestMapAdd(t *testing.T) {
	m := NewMap([]string{"10.0.0.1:1"}, Options{})
	defer m.Close()
	b, err := m.Add("10.0.0.2:1")
	if err != nil || b.Name != "s1" {
		t.Fatalf("Add = %v, %v; want backend s1", b, err)
	}
	if _, err := m.Add("10.0.0.2:1"); err == nil {
		t.Error("duplicate address admitted twice")
	}
	routed := map[string]bool{}
	for i := 0; i < 50; i++ {
		bk, err := pick(m, fmt.Sprintf("fp-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		routed[bk.Name] = true
	}
	if !routed["s1"] {
		t.Error("joined shard never receives traffic")
	}

	if _, err := pick(NewMap(nil, Options{}), "fp"); err != ErrNoShards {
		t.Errorf("Pick on empty map = %v, want ErrNoShards", err)
	}
}

// pick is the head of a fingerprint's replica chain: the shard a routed
// submission tries first.
func pick(m *Map, fp string) (*Backend, error) {
	replicas, err := m.PickReplicas(fp)
	if err != nil {
		return nil, err
	}
	return replicas[0], nil
}

func names(bs []*Backend) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}
