// Command watosd is the resident WATOS evaluation service: a daemon that
// accepts search jobs over an HTTP/JSON API (see internal/service), runs
// them on a bounded job queue, coalesces identical concurrent requests, and
// keeps the process-wide candidate and evaluation caches warm across
// requests — persisting them to a snapshot file so a restarted daemon
// answers previously-seen jobs without re-simulation.
//
//	watosd -addr :8080
//	watosd -addr :8080 -workers 8 -jobs 2 -snapshot /var/lib/watos/cache.snapshot
//	watosd -addr :8081 -seed-from localhost:8080   # join a fleet warm
//	watos -model Llama2-30B -config config3 -remote localhost:8080
//
// Shutdown is graceful: on SIGINT/SIGTERM the daemon flips into draining
// (new submissions get HTTP 503, health goes unhealthy so a routing tier
// stops sending work), stops accepting connections, finishes every job
// already accepted — running and queued — and saves a final snapshot. A
// second signal skips the drain and exits on the bounded path (running jobs
// finish, the queued backlog is dropped).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/search/pool"
	"repro/internal/service"
	"repro/internal/service/client"
)

// parseClassBudgets parses "-class-budget background=8,sweep-leg=32" into the
// per-class backlog caps (indexed by pool.Class; 0 = uncapped). Class names
// are the wire priority names the API accepts.
func parseClassBudgets(s string) ([pool.NumClasses]int, error) {
	var budgets [pool.NumClasses]int
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return budgets, fmt.Errorf("class budget %q: want class=N", kv)
		}
		name = strings.TrimSpace(name)
		cls, known := pool.ParseClass(name)
		if name == "" || !known {
			return budgets, fmt.Errorf("class budget %q: unknown class (want interactive, sweep-leg or background)", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return budgets, fmt.Errorf("class budget %q: bad cap %q", name, val)
		}
		budgets[cls] = n
	}
	return budgets, nil
}

// withInjectedDelay wraps a handler so the first n non-healthz requests stall
// for d before being served — a development fault that makes the data path
// slow while the health probe stays green, exactly the brownout the routing
// tier's latency breaker exists to catch. n <= 0 delays every request.
func withInjectedDelay(h http.Handler, d time.Duration, n int) http.Handler {
	var left atomic.Int64
	unbounded := n <= 0
	left.Store(int64(n))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/healthz" && (unbounded || left.Add(-1) >= 0) {
			time.Sleep(d)
		}
		h.ServeHTTP(w, r)
	})
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := cliutil.WorkersFlag()
	jobs := flag.Int("jobs", 1, "number of jobs running concurrently")
	backlog := flag.Int("backlog", 64, "queued-job backlog bound (submissions beyond it get HTTP 503)")
	classBudget := flag.String("class-budget", "", "per-priority-class backlog caps, e.g. background=8,sweep-leg=32,interactive=0 (0 = uncapped; over-budget submissions get HTTP 429 + Retry-After)")
	history := flag.Int("history", 1024, "retained job records (earliest finished evicted first; queued and running jobs never are)")
	historyTTL := flag.Duration("history-ttl", time.Hour, "terminal job records expire after this age; polling them returns HTTP 410 (negative = never)")
	sweepTTL := flag.Duration("sweep-ttl", 15*time.Minute, "terminal async sweep handles expire after this age (negative = never)")
	sweepHistory := flag.Int("sweep-history", 256, "retained async sweep handles (oldest finished evicted first)")
	snapshot := flag.String("snapshot", "", "cache snapshot path: load at startup, save on shutdown and on POST /v1/snapshot")
	seedFrom := flag.String("seed-from", "", "peer watosd address to pull a cache snapshot from at startup (shard warm join; mismatched snapshot versions are discarded)")
	prefetchOn := flag.Bool("prefetch", false, "speculative cache warming: completed demand jobs predict their sweep neighbors and pre-evaluate them through idle capacity")
	prefetchFanout := flag.Int("prefetch-fanout", 3, "speculative evaluations issued per completed demand job (with -prefetch)")
	traceCap := flag.Int("trace-capacity", 0, "request-trace ring entries retained for GET /v1/trace and neighbor prediction (0 = default 256)")
	pprofOn := cliutil.PprofFlag()
	injectDelay := flag.Duration("test-inject-delay", 0, "development fault: stall non-healthz requests by this much (0 = off); pair with -test-inject-first")
	injectFirst := flag.Int("test-inject-first", 0, "development fault: only the first N non-healthz requests stall (0 = all while -test-inject-delay is set)")
	flag.Parse()

	budgets, err := parseClassBudgets(*classBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "watosd: -class-budget:", err)
		os.Exit(2)
	}

	srv := service.NewServer(service.Options{
		EvalWorkers:    *workers,
		JobWorkers:     *jobs,
		Backlog:        *backlog,
		ClassBudgets:   budgets,
		History:        *history,
		HistoryTTL:     *historyTTL,
		SweepTTL:       *sweepTTL,
		SweepHistory:   *sweepHistory,
		SnapshotPath:   *snapshot,
		Prefetch:       *prefetchOn,
		PrefetchFanout: *prefetchFanout,
		TraceCapacity:  *traceCap,
	}, nil)

	if *snapshot != "" {
		switch info, err := srv.LoadSnapshot(); {
		case err == nil:
			log.Printf("warm start: restored %d candidates / %d evaluations from %s (saved %s)",
				info.Candidates, info.Eval, info.Path, info.SavedAt.Format(time.RFC3339))
		case errors.Is(err, service.ErrNoSnapshot):
			log.Printf("cold start: no snapshot at %s yet", *snapshot)
		case errors.Is(err, service.ErrStaleSnapshot):
			log.Printf("cold start: discarding stale snapshot at %s (%v)", *snapshot, err)
		default:
			log.Printf("cold start: snapshot load failed: %v", err)
		}
	}

	// A shard joining a fleet mid-run seeds its caches from a warm peer: one
	// GET /v1/snapshot pull, validated against this daemon's fingerprint
	// scheme and predictor identity (a mismatched peer snapshot is discarded,
	// never aliased). Seeding failures are cold starts, not fatal — the shard
	// still serves correctly, just without the warm-up.
	if *seedFrom != "" {
		func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rc, err := client.New(*seedFrom).PullSnapshot(ctx)
			if err != nil {
				log.Printf("cold join: snapshot pull from %s failed: %v", *seedFrom, err)
				return
			}
			defer rc.Close()
			switch info, err := srv.RestoreSnapshotFrom(rc); {
			case err == nil:
				log.Printf("warm join: seeded %d candidates / %d evaluations from peer %s",
					info.Candidates, info.Eval, *seedFrom)
			case errors.Is(err, service.ErrStaleSnapshot):
				log.Printf("cold join: discarding peer snapshot from %s (%v)", *seedFrom, err)
			default:
				log.Printf("cold join: peer snapshot from %s unreadable: %v", *seedFrom, err)
			}
		}()
	}

	// A resident daemon must not let slow or idle clients pin connections
	// forever: bound header and body reads and idle keep-alive. Responses
	// can be large (canonical records), so writes stay unbounded — the
	// handler bounds request bodies instead (service.MaxRequestBytes).
	handler := cliutil.WithPprof(srv.Handler(), *pprofOn)
	if *injectDelay > 0 {
		log.Printf("fault injection armed: first %d non-healthz requests stall %v (0 = all)", *injectFirst, *injectDelay)
		handler = withInjectedDelay(handler, *injectDelay, *injectFirst)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("watosd listening on %s (jobs=%d, workers=%d)", *addr, *jobs, *workers)

	select {
	case <-ctx.Done():
		log.Print("shutting down: draining jobs (signal again to skip the drain)")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "watosd:", err)
		os.Exit(1)
	}
	// Refuse new work before the listener goes down, so a submission racing
	// the shutdown gets a clean 503 instead of a reset connection, and
	// re-arm signals: a second SIGTERM/SIGINT falls through to the bounded
	// close instead of being swallowed by the finished NotifyContext.
	srv.BeginDrain()
	stop()
	forced := make(chan os.Signal, 1)
	signal.Notify(forced, os.Interrupt, syscall.SIGTERM)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}

	// Graceful path: finish the accepted backlog too. A second signal while
	// it drains cuts over to the bounded close (running jobs finish, the
	// rest of the backlog is dropped and marked failed).
	closed := make(chan error, 1)
	go func() { closed <- srv.CloseGraceful() }()
	var closeErr error
	select {
	case closeErr = <-closed:
	case <-forced:
		log.Print("second signal: dropping the queued backlog")
		srv.AbortDrain()
		closeErr = <-closed
	}
	if closeErr != nil {
		log.Printf("snapshot save: %v", closeErr)
	} else if *snapshot != "" {
		log.Printf("snapshot saved to %s", *snapshot)
	}
	log.Print("watosd stopped")
}
