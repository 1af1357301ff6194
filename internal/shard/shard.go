// Package shard is the sharded evaluation tier in front of a fleet of
// watosd daemons: a live shard map with health-checked membership, stable
// fingerprint routing, and the scatter-gather router (see router.go) that
// cmd/watos-router serves.
//
// Routing is rendezvous hashing over the canonical request fingerprint
// (search.ShardOwner): identical jobs always land on the same shard, so the
// per-shard singleflight dedup and candidate/evaluation caches stay hot for
// that shard's slice of the request space, and shard-set changes move only
// the fingerprints owned by the departing or joining shard. Shards exchange
// versioned cache snapshots (service snapshot streams) so a cold shard can
// seed from a warm peer on join.
package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/service/client"
)

// Options configure the shard map's health checking.
type Options struct {
	// HealthInterval paces the background /v1/healthz probing (default 2s).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s; requestTimeout caps it).
	ProbeTimeout time.Duration
	// FailAfter is the number of consecutive probe failures that exclude a
	// shard from routing (default 2). One successful probe readmits it.
	FailAfter int
	// Replicas is the replica-set size R (default 2): PickReplicas returns
	// up to R healthy shards per fingerprint — the rendezvous primary
	// followed by the greedily placed backup and then the rest of the
	// rendezvous chain — so routing can fail over in-band without a
	// re-pick. 1 disables replication (primary only).
	Replicas int
	// Breaker tunes the per-shard circuit breakers (see breaker.go): routing
	// also skips shards whose breaker is open, which catches the
	// slow-but-alive and erroring-but-alive failure modes the health probe
	// cannot see. Every shard has a breaker; zero fields take the defaults.
	Breaker BreakerOptions
}

// requestTimeout bounds each router→shard round-trip. Every such call is a
// quick exchange (submit, status poll, stats, probe, snapshot trigger), so a
// hung daemon whose listener still accepts connections surfaces as a
// connection error and in-band exclusion instead of pinning routed requests.
const requestTimeout = 15 * time.Second

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 2 * time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 2
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	o.Breaker = o.Breaker.withDefaults()
	return o
}

// Backend is one watosd shard in the map.
type Backend struct {
	// Name is the shard's display label ("s0", "s1", ...) for logs and
	// statuses. It is positional (join order), so it is never used to
	// resolve a job ID — the ID namespace is Addr.
	Name string
	// Addr is the shard's stable identity: the rendezvous hash input, so a
	// map rebuilt with the same addresses routes identically whatever the
	// listing order.
	Addr string
	// Client is the typed service client bound to Addr: retry-free, each
	// round-trip bounded by requestTimeout. Health probes share it.
	Client *client.Client
	// breaker is the shard's data-path circuit breaker. It is fed by the
	// router's round-trips, never by health probes.
	breaker *Breaker

	mu        sync.Mutex
	healthy   bool
	failures  int // consecutive probe failures
	lastErr   string
	lastProbe time.Time
}

// Status is one shard's externally visible state (part of router stats).
type Status struct {
	Name    string `json:"name"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// Failures counts consecutive failed probes (0 when healthy).
	Failures  int       `json:"failures,omitempty"`
	LastError string    `json:"last_error,omitempty"`
	LastProbe time.Time `json:"last_probe,omitempty"`
	// Stats is the shard's own /v1/stats (queue occupancy gauges included),
	// filled by the router's stats aggregation; nil when unreachable.
	Stats *service.Stats `json:"stats,omitempty"`
	// Breaker is the shard's circuit-breaker state. A shard can be
	// probe-healthy with an open breaker: alive to healthz but failing or
	// slow on the data path.
	Breaker *BreakerStatus `json:"breaker,omitempty"`
}

// Map is the live shard map: a fixed-at-a-time set of backends, a
// background health loop that excludes unresponsive shards and readmits
// recovered ones, and rendezvous routing over the healthy set.
type Map struct {
	opts Options

	mu        sync.Mutex
	backends  []*Backend
	seq       int // next backend name ordinal
	placement *Placement

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMap builds a shard map over the given daemon addresses. Every shard
// starts healthy (optimistic: a probe pass or the health loop corrects the
// view within one interval); call Probe for a synchronous first pass.
func NewMap(addrs []string, opts Options) *Map {
	m := &Map{
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for _, addr := range addrs {
		m.add(addr)
	}
	m.rebuildPlacement()
	return m
}

func (m *Map) add(addr string) *Backend {
	b := &Backend{
		Name:    fmt.Sprintf("s%d", m.seq),
		Addr:    addr,
		Client:  client.New(addr),
		breaker: newBreaker(m.opts.Breaker),
		healthy: true,
	}
	b.Client.Timeout = requestTimeout
	// No transport retries: the router's failover re-pick, the end client's
	// own retry budget and the next probe are the retry mechanisms, and a
	// hung shard must cost one requestTimeout, not retries × requestTimeout,
	// before in-band exclusion fires.
	b.Client.Retries = -1
	m.seq++
	m.backends = append(m.backends, b)
	m.rebuildPlacement()
	return b
}

// rebuildPlacement recomputes the greedy replica placement for the current
// membership. Caller holds m.mu (or owns the map exclusively, as in NewMap).
func (m *Map) rebuildPlacement() {
	addrs := make([]string, len(m.backends))
	for i, b := range m.backends {
		addrs[i] = b.Addr
	}
	m.placement = NewPlacement(addrs, 0)
}

// Add joins a new shard to the map mid-run and reports its assigned name.
// Rendezvous hashing moves only the fingerprints the new shard now owns, so
// existing shards keep their cache slices; the joining daemon is expected to
// have seeded its caches from a peer snapshot (watosd -seed-from).
func (m *Map) Add(addr string) (*Backend, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.backends {
		if b.Addr == addr {
			return nil, fmt.Errorf("shard: %s already in the map as %s", addr, b.Name)
		}
	}
	return m.add(addr), nil
}

// Remove takes a shard out of the map (the final step of a drain — see
// Router.handleRemoveShard) and rebuilds the replica placement. Rendezvous
// hashing guarantees only the removed shard's fingerprints move.
func (m *Map) Remove(addr string) (*Backend, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, b := range m.backends {
		if b.Addr == addr {
			m.backends = append(m.backends[:i:i], m.backends[i+1:]...)
			m.rebuildPlacement()
			return b, nil
		}
	}
	return nil, fmt.Errorf("shard: %s not in the map", addr)
}

// Placement returns the current greedy replica placement (never nil).
func (m *Map) Placement() *Placement {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.placement
}

// RecoveryReport returns the audited recovery-load graph for /v1/stats,
// with the configured replica count filled in.
func (m *Map) RecoveryReport() RecoveryReport {
	m.mu.Lock()
	rep := m.placement.Report()
	rep.Replicas = m.opts.Replicas
	m.mu.Unlock()
	return rep
}

// Backends snapshots the current backend list in join order.
func (m *Map) Backends() []*Backend {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Backend, len(m.backends))
	copy(out, m.backends)
	return out
}

// BackendByAddr resolves a shard by its stable address — the namespace
// routed job IDs carry. Labels (s0, s1, ...) are positional and would
// resolve to a different daemon after a router restart with a reordered
// shard list; addresses cannot.
func (m *Map) BackendByAddr(addr string) (*Backend, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.backends {
		if b.Addr == addr {
			return b, true
		}
	}
	return nil, false
}

// Healthy returns the shards currently admitted to routing, in join order.
func (m *Map) Healthy() []*Backend {
	var out []*Backend
	for _, b := range m.Backends() {
		b.mu.Lock()
		ok := b.healthy
		b.mu.Unlock()
		if ok {
			out = append(out, b)
		}
	}
	return out
}

// ErrNoShards reports routing with every shard excluded.
var ErrNoShards = fmt.Errorf("shard: no healthy shards")

// PickReplicas returns the fingerprint's replica set: up to Options.Replicas
// healthy shards in failover order, headed by the rendezvous owner while it
// is healthy, whatever order shards were listed in. The chain is built over the FULL
// membership — [rendezvous primary, greedy backup (Placement), rendezvous
// rank 1, rank 2, ...] deduplicated — and then filtered to the healthy set,
// so in-band failover (walking the returned slice) and health-exclusion
// failover (the primary already excluded when PickReplicas runs) land a
// fingerprint on the same shard, and a failed primary's slice spreads over
// survivors per the balanced placement instead of dogpiling rendezvous
// rank 1.
func (m *Map) PickReplicas(fingerprint string) ([]*Backend, error) {
	m.mu.Lock()
	backends := make([]*Backend, len(m.backends))
	copy(backends, m.backends)
	pl := m.placement
	r := m.opts.Replicas
	m.mu.Unlock()
	if len(backends) == 0 {
		return nil, ErrNoShards
	}

	addrs := make([]string, len(backends))
	byAddr := make(map[string]*Backend, len(backends))
	for i, b := range backends {
		addrs[i] = b.Addr
		byAddr[b.Addr] = b
	}
	rank := search.ShardRank(fingerprint, addrs, 0)
	chain := make([]string, 0, len(rank)+1)
	chain = append(chain, addrs[rank[0]])
	if backup, ok := pl.Backup(fingerprint, addrs[rank[0]]); ok && backup != chain[0] {
		chain = append(chain, backup)
	}
	for _, idx := range rank[1:] {
		addr := addrs[idx]
		if addr != chain[0] && (len(chain) < 2 || addr != chain[1]) {
			chain = append(chain, addr)
		}
	}

	out := make([]*Backend, 0, r)
	for _, addr := range chain {
		b := byAddr[addr]
		// Admitted to routing = probe-healthy AND breaker not blocking. The
		// breaker side catches shards the probe cannot indict: healthz green
		// but the data path erroring or slow.
		if !b.Healthy() || !b.breaker.Routable() {
			continue
		}
		out = append(out, b)
		if len(out) == r {
			break
		}
	}
	if len(out) == 0 {
		return nil, ErrNoShards
	}
	return out, nil
}

// Healthy reports whether the backend is currently probe-healthy. Routing
// admission additionally consults the circuit breaker (see PickReplicas).
func (b *Backend) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.healthy
}

// Breaker returns the backend's circuit breaker.
func (b *Backend) Breaker() *Breaker {
	return b.breaker
}

// MarkFailed records an in-band connection failure observed while
// forwarding to the shard (not a probe): the shard is excluded immediately
// and readmitted by its next successful health probe. Routing must not keep
// sending jobs to a daemon the data path already knows is down just because
// the probe loop hasn't ticked yet.
func (b *Backend) MarkFailed(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.healthy = false
	b.failures++
	if err != nil {
		b.lastErr = err.Error()
	}
}

// probe runs one health check against the backend and updates its state.
func (m *Map) probe(ctx context.Context, b *Backend) {
	ctx, cancel := context.WithTimeout(ctx, m.opts.ProbeTimeout)
	defer cancel()
	err := b.Client.Health(ctx)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastProbe = time.Now()
	if err != nil {
		b.failures++
		b.lastErr = err.Error()
		if b.failures >= m.opts.FailAfter {
			b.healthy = false
		}
		return
	}
	b.failures = 0
	b.lastErr = ""
	b.healthy = true
}

// ProbeAddr health-checks an address that is not (yet) in the map — the
// admission gate of a join.
func (m *Map) ProbeAddr(ctx context.Context, addr string) error {
	ctx, cancel := context.WithTimeout(ctx, m.opts.ProbeTimeout)
	defer cancel()
	c := client.New(addr)
	c.Retries = -1
	return c.Health(ctx)
}

// Probe runs one synchronous health pass over every shard (startup and
// tests; the background loop runs the same pass on its interval).
func (m *Map) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range m.Backends() {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			m.probe(ctx, b)
		}(b)
	}
	wg.Wait()
}

// Start launches the background health loop (at most once). Close stops it.
func (m *Map) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.Probe(context.Background())
			}
		}
	}()
}

// Close stops the health loop and joins it (idempotent; safe if Start was
// never called).
func (m *Map) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.mu.Lock()
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// Statuses snapshots every shard's health view in join order.
func (m *Map) Statuses() []Status {
	backends := m.Backends()
	out := make([]Status, len(backends))
	for i, b := range backends {
		b.mu.Lock()
		out[i] = Status{
			Name:      b.Name,
			Addr:      b.Addr,
			Healthy:   b.healthy,
			Failures:  b.failures,
			LastError: b.lastErr,
			LastProbe: b.lastProbe,
		}
		b.mu.Unlock()
		bs := b.breaker.Snapshot()
		out[i].Breaker = &bs
	}
	return out
}
