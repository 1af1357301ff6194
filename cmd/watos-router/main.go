// Command watos-router is the sharded evaluation tier's front-end: it
// maintains a live shard map over a fleet of watosd daemons (health-checked,
// with automatic exclusion and readmission), routes jobs by stable hashing
// of the canonical request fingerprint so identical jobs always land on the
// same shard's warm caches, and scatter-gathers Table II-style sweeps
// per-architecture across the fleet.
//
//	watos-router -addr :8090 -shards host1:8080,host2:8080
//	watos -model Llama2-30B -config config3 -remote localhost:8090
//	watos -model Llama2-30B -remote localhost:8090      # scattered sweep
//
// It serves the watosd API surface (plus GET/POST/DELETE /v1/shards), so the
// typed client and `watos -remote` work against a router unchanged; results
// are byte-identical to a single daemon and to an in-process search. Each
// fingerprint routes to a replica set (-replicas) with in-band failover,
// every shard has a circuit breaker (-breaker-*), sweep legs re-dispatch
// through shard crashes (-sweep-retries), and DELETE /v1/shards drains a
// departing shard's warm cache slice to the shards inheriting its
// fingerprints before removal.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8090", "HTTP listen address")
	shards := flag.String("shards", "", "comma-separated watosd shard addresses (host:port,...)")
	interval := flag.Duration("health-interval", 2*time.Second, "shard health-probe interval")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "per-probe timeout")
	failAfter := flag.Int("fail-after", 2, "consecutive failed probes before a shard is excluded from routing")
	replicas := flag.Int("replicas", 2, "replica-set size R per fingerprint: primary plus failover targets (1 disables replication)")
	sweepRetries := flag.Int("sweep-retries", 2, "re-dispatches per sweep leg after a retryable failure (shard crash mid-sweep)")
	resultCache := flag.Int("result-cache", 4096, "completed-result cache entries: repeat submissions of an answered fingerprint are served at the router (0 disables)")
	prefetchOn := flag.Bool("prefetch", false, "speculative cache warming: accepted demand jobs predict their sweep neighbors and pre-evaluate them through idle shard capacity into the result cache")
	prefetchFanout := flag.Int("prefetch-fanout", 3, "speculative evaluations issued per accepted demand job (with -prefetch)")
	sweepTTL := flag.Duration("sweep-ttl", 15*time.Minute, "terminal async sweep handles expire after this age (negative = never)")
	sweepHistory := flag.Int("sweep-history", 256, "retained async sweep handles (oldest finished evicted first)")
	breakerWindow := flag.Int("breaker-window", 20, "circuit breaker rolling round-trip window size")
	breakerMinSamples := flag.Int("breaker-min-samples", 8, "window occupancy required before a breaker may trip")
	breakerErrorRate := flag.Float64("breaker-error-rate", 0.5, "failed round-trip fraction over the window that opens a shard's breaker (above 1 never trips)")
	breakerP95 := flag.Duration("breaker-p95", 2*time.Second, "window p95 round-trip latency that opens a shard's breaker (negative disables the latency signal)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-breaker routing exclusion before a single half-open trial is admitted")
	pprofOn := cliutil.PprofFlag()
	flag.Parse()

	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "watos-router: -shards must list at least one watosd address")
		os.Exit(2)
	}

	m := shard.NewMap(addrs, shard.Options{
		HealthInterval: *interval,
		ProbeTimeout:   *probeTimeout,
		FailAfter:      *failAfter,
		Replicas:       *replicas,
		Breaker: shard.BreakerOptions{
			Window:     *breakerWindow,
			MinSamples: *breakerMinSamples,
			ErrorRate:  *breakerErrorRate,
			LatencyP95: *breakerP95,
			Cooldown:   *breakerCooldown,
		},
	})
	m.Probe(context.Background())
	for _, st := range m.Statuses() {
		state := "healthy"
		if !st.Healthy {
			state = "unreachable (" + st.LastError + ")"
		}
		log.Printf("shard %s at %s: %s", st.Name, st.Addr, state)
	}
	m.Start()
	defer m.Close()

	router := shard.NewRouter(m)
	router.SweepRetries = *sweepRetries
	router.Cache = shard.NewResultCache(*resultCache)
	router.SweepTTL = *sweepTTL
	router.SweepHistory = *sweepHistory
	router.Prefetch = *prefetchOn
	router.PrefetchFanout = *prefetchFanout
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           cliutil.WithPprof(router.Handler(), *pprofOn),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("watos-router listening on %s over %d shards", *addr, len(addrs))

	select {
	case <-ctx.Done():
		log.Print("shutting down")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "watos-router:", err)
		os.Exit(1)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("watos-router stopped")
}
