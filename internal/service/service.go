// Package service implements the resident WATOS evaluation service behind
// cmd/watosd: a long-running daemon that accepts search jobs (model,
// workload, architecture restriction, scheduler options) over an HTTP/JSON
// API, runs them on a bounded job queue layered on the search/pool runtime,
// and exposes job status, results and cache statistics.
//
// Three properties make it a backend rather than a batch runner:
//
//   - Request canonicalization + in-flight dedup: requests normalize to the
//     same canonical form the CLI applies, and identical concurrent jobs
//     coalesce onto one execution (singleflight keyed by the request
//     fingerprint), observable via the stats endpoint.
//   - Shared warm caches: every job funnels through the process-wide
//     candidate memo (internal/sched) and evaluation cache
//     (internal/search), so a resident daemon amortizes strategy
//     construction and simulation across requests instead of cold-starting
//     per CLI run.
//   - Cache snapshot persistence: the daemon serializes both caches to disk
//     and restores them on restart, versioned by the fingerprint scheme so
//     stale keys are discarded rather than aliased (see snapshot.go).
//
// Results carry the canonical exploration record (sched.RenderCandidate),
// so a daemon-served job is provably byte-identical to the same search run
// in-process.
//
// The daemon is also the unit of the sharded tier (internal/shard): sweeps
// scatter into per-architecture jobs and gather byte-identically (sweep.go),
// snapshots stream over HTTP so a joining shard seeds from a warm peer, and
// the stats payload carries the queue occupancy gauges a routing front-end
// reads as its per-shard load signal.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/predictor"
	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/search/pool"
)

// Request is one search job. The zero value of each field selects the same
// default the watos CLI applies, so a CLI run and a service job with equal
// effective parameters share one canonical form.
type Request struct {
	// Model is a model-zoo name (default Llama2-30B).
	Model string `json:"model,omitempty"`
	// Config restricts the architecture: config1..config4, mesh-switch;
	// empty explores the full Table II sweep.
	Config string `json:"config,omitempty"`
	// Batch is the global batch size (default 64).
	Batch int `json:"batch,omitempty"`
	// Micro is the micro-batch size (default 1).
	Micro int `json:"micro,omitempty"`
	// Seq is the sequence length (0 = model default capped at 4096).
	Seq int `json:"seq,omitempty"`
	// UseGA enables the genetic-algorithm global optimizer.
	UseGA bool `json:"ga,omitempty"`
	// MaxTP caps the tensor-parallel degree (0 = number of dies).
	MaxTP int `json:"max_tp,omitempty"`
	// FixedTP/FixedPP pin the parallelism (baseline reproduction): both
	// set evaluate the one candidate, one alone fixes that degree and
	// searches the other (sched.Options).
	FixedTP int `json:"fixed_tp,omitempty"`
	FixedPP int `json:"fixed_pp,omitempty"`
	// PipelineWafers spreads the pipeline over a multi-wafer node.
	PipelineWafers int `json:"pipeline_wafers,omitempty"`
	// Seed drives the placement optimiser and GA.
	Seed int64 `json:"seed,omitempty"`

	// Priority selects the scheduling class: "interactive" (the default —
	// an unlabelled request is somebody waiting), "sweep-leg",
	// "background", or "prefetch" (speculative cache warming: admitted
	// only into idle capacity and cancelled the moment demand work
	// arrives). It is server-side scheduling metadata, deliberately
	// NOT part of the fingerprint: identical work submitted at different
	// priorities still coalesces onto one execution, and a higher-priority
	// duplicate promotes the queued job instead of waiting behind it.
	Priority string `json:"priority,omitempty"`
	// Criticality orders jobs within a class — higher dispatches first.
	// A sweep sets it per leg (SupraX-style critical-path-first: the legs
	// gating the most downstream merge work carry the highest value).
	// Like Priority it never enters the fingerprint.
	Criticality int `json:"criticality,omitempty"`
	// DeadlineMS is the caller's remaining time budget in milliseconds,
	// converted to an absolute deadline when the request is admitted (a
	// relative budget survives store-and-forward hops; each tier re-derives
	// the remainder before forwarding). 0 = no deadline. A job whose
	// deadline passes while it is still queued is cancelled without ever
	// executing and reported as deadline_exceeded; a job whose estimated
	// queue wait already exceeds the budget is refused at admission with
	// 429 + Retry-After. Like Priority, a deadline is scheduling metadata
	// and never part of the fingerprint.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Normalize applies the CLI-equivalent defaults and validates the model
// name, architecture restriction and workload. Two requests that normalize
// equal are guaranteed to produce byte-identical results, which is what
// makes the normalized fingerprint a safe dedup key.
func (r Request) Normalize() (Request, error) {
	if r.Model == "" {
		r.Model = "Llama2-30B"
	}
	spec, err := cliutil.Model(r.Model)
	if err != nil {
		return r, err
	}
	r.Model = spec.Name
	if _, err := cliutil.ArchCandidates(r.Config); err != nil {
		return r, err
	}
	if r.Batch == 0 {
		r.Batch = 64
	}
	if r.Micro == 0 {
		r.Micro = 1
	}
	r.Seq = cliutil.SeqLen(spec, r.Seq)
	work := model.Workload{GlobalBatch: r.Batch, MicroBatch: r.Micro, SeqLen: r.Seq}
	if err := work.Validate(); err != nil {
		return r, err
	}
	if _, ok := pool.ParseClass(r.Priority); !ok {
		return r, fmt.Errorf("unknown priority %q (want interactive, sweep-leg, background or prefetch)", r.Priority)
	}
	if r.DeadlineMS < 0 {
		return r, fmt.Errorf("negative deadline_ms %d", r.DeadlineMS)
	}
	// A negative pin would run as unset under a fingerprint of its own.
	for _, f := range []struct {
		name string
		v    int
	}{{"max_tp", r.MaxTP}, {"fixed_tp", r.FixedTP}, {"fixed_pp", r.FixedPP}, {"pipeline_wafers", r.PipelineWafers}} {
		if f.v < 0 {
			return r, fmt.Errorf("negative %s %d", f.name, f.v)
		}
	}
	return r, nil
}

// Deadline converts the relative wire budget into an absolute deadline at
// admission time (zero when the request carries none). Each tier computes it
// once where it takes ownership of the request and threads it from there —
// recomputing it per retry would silently restart the budget.
func (r Request) Deadline(now time.Time) time.Time {
	if r.DeadlineMS <= 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(r.DeadlineMS) * time.Millisecond)
}

// class resolves the request's scheduling class (call after Normalize).
func (r Request) class() pool.Class {
	c, _ := pool.ParseClass(r.Priority)
	return c
}

// Workload returns the request's training workload (call after Normalize).
func (r Request) Workload() model.Workload {
	return model.Workload{GlobalBatch: r.Batch, MicroBatch: r.Micro, SeqLen: r.Seq}
}

// Fingerprint is the canonical identity of a normalized request — the
// singleflight dedup key. Worker counts and cache policy are server-side
// and never part of it (results are invariant to both, like the fingerprint
// scheme of the evaluation cache).
func (r Request) Fingerprint() string {
	return fmt.Sprintf("m=%s|c=%s|b=%d|mb=%d|s=%d|ga=%v|maxtp=%d|ftp=%d|fpp=%d|pw=%d|seed=%d",
		r.Model, r.Config, r.Batch, r.Micro, r.Seq, r.UseGA,
		r.MaxTP, r.FixedTP, r.FixedPP, r.PipelineWafers, r.Seed)
}

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | deadline_exceeded.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateExpired marks a job cancelled by its own deadline while still
	// queued (it never executed). It is deliberately distinct from
	// StateFailed: the work was fine, the caller's budget ran out — a
	// client should not treat it as a server fault, and a retry with a
	// larger budget may well succeed.
	StateExpired State = "deadline_exceeded"
	// StateCancelled marks a queued speculative prefetch job that the job
	// table stopped inside the submission admitting demand work: it never
	// executed, and nothing was lost — the work was the daemon's own guess.
	// Distinct from both StateFailed (no fault) and StateExpired (no budget
	// was exhausted); only speculation no demand duplicate has adopted ever
	// reaches it.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired || s == StateCancelled
}

// ArchSummary is one architecture candidate's outcome inside a Result.
type ArchSummary struct {
	Name       string  `json:"name"`
	Status     string  `json:"status"`
	Throughput float64 `json:"throughput,omitempty"`
	TP         int     `json:"tp,omitempty"`
	PP         int     `json:"pp,omitempty"`
}

// Result is a completed job's report.
type Result struct {
	BestArch            string        `json:"best_arch"`
	TP                  int           `json:"tp"`
	PP                  int           `json:"pp"`
	DP                  int           `json:"dp"`
	Collective          string        `json:"collective"`
	IterationTime       float64       `json:"iteration_time"`
	Throughput          float64       `json:"throughput"`
	TotalThroughput     float64       `json:"total_throughput"`
	RecomputeFraction   float64       `json:"recompute_fraction"`
	BubbleFraction      float64       `json:"bubble_fraction"`
	ComputeUtilization  float64       `json:"compute_utilization"`
	DRAMUtilization     float64       `json:"dram_utilization"`
	MeanLinkUtilization float64       `json:"mean_link_utilization"`
	MemPairs            int           `json:"mem_pairs"`
	OverflowBytes       float64       `json:"overflow_bytes"`
	Explored            int           `json:"explored"`
	Pruned              int           `json:"pruned"`
	PerArch             []ArchSummary `json:"per_arch"`
	// Canonical is the canonical rendering of the full exploration record
	// (see Canonical) — the byte-identity proof against an in-process run.
	Canonical string `json:"canonical"`
	// SchemeVersion and PredictorID stamp the result with the fingerprint
	// scheme and predictor identity it was computed under. They let a
	// completed-result cache (the router's) invalidate entries across
	// scheme bumps and predictor swaps instead of aliasing stale records,
	// exactly as snapshot headers do for the evaluation caches.
	SchemeVersion int    `json:"scheme_version,omitempty"`
	PredictorID   uint64 `json:"predictor_id,omitempty"`
}

// Job is the externally visible job record.
type Job struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	State       State   `json:"state"`
	Request     Request `json:"request"`
	// Coalesced counts the extra submissions this execution absorbed
	// through in-flight dedup.
	Coalesced   int       `json:"coalesced"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Deadline is the absolute point the job's budget expires (zero = no
	// deadline); it is the latest deadline across the coalesced submitters.
	Deadline   time.Time `json:"deadline,omitzero"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	Result     *Result   `json:"result,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Terminal reports whether the job has finished — the jobs.Handle contract
// that starts the record's retention clock and wakes its waiters.
func (j Job) Terminal() bool { return j.State.Terminal() }

// Summary is the listing form of a job (no result payload).
type Summary struct {
	ID          string    `json:"id"`
	Fingerprint string    `json:"fingerprint"`
	State       State     `json:"state"`
	Model       string    `json:"model"`
	Config      string    `json:"config,omitempty"`
	Coalesced   int       `json:"coalesced"`
	SubmittedAt time.Time `json:"submitted_at"`
}

// Stats is the /v1/stats payload.
type Stats struct {
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsRejected  uint64 `json:"jobs_rejected"`
	// JobsExpired counts jobs cancelled by their own deadline while still
	// queued (deadline_exceeded) — distinct from JobsFailed.
	JobsExpired uint64 `json:"jobs_expired"`
	// JobsShed counts admissions refused by overload protection: the class
	// backlog budget was exhausted or the estimated queue wait already
	// exceeded the request's deadline (HTTP 429 + Retry-After).
	JobsShed uint64 `json:"jobs_shed"`
	// JobsEvicted counts terminal job records dropped by the History cap
	// or HistoryTTL; polling an evicted job ID returns 410 Gone.
	JobsEvicted uint64 `json:"jobs_evicted"`
	// SweepsRun counts completed POST /v1/sweeps scatters.
	SweepsRun uint64 `json:"sweeps_run"`
	// QueueDepth and JobsInFlight are the queue occupancy gauges: jobs
	// waiting in the backlog and jobs executing on workers. A routing
	// front-end reads them per shard as its load signal.
	QueueDepth   int `json:"queue_depth"`
	JobsInFlight int `json:"jobs_in_flight"`
	// Per-priority backlog depths (they sum to QueueDepth): the gauges
	// that make head-of-line blocking visible — a deep sweep-leg lane with
	// an empty interactive lane is the healthy shape.
	QueueInteractive int `json:"queue_interactive"`
	QueueSweepLeg    int `json:"queue_sweep_leg"`
	QueueBackground  int `json:"queue_background"`
	QueuePrefetch    int `json:"queue_prefetch"`
	// Warm-hit attribution: demand submissions whose fingerprint had
	// already been executed to completion on this daemon, split by who
	// warmed it — earlier demand work (HitsDemand) or the speculative
	// prefetch lane (HitsPrefetch). HitsPrefetch is the prefetcher's
	// payoff gauge.
	HitsDemand   uint64 `json:"hits_demand"`
	HitsPrefetch uint64 `json:"hits_prefetch"`
	// Prefetch-lane counters: jobs admitted into the speculative lane,
	// queued speculative jobs evicted by demand arrival, and distinct
	// prefetched fingerprints later served to at least one demand request
	// (useful <= issued; useful/issued is the predictor's precision).
	PrefetchIssued    uint64 `json:"prefetch_issued"`
	PrefetchCancelled uint64 `json:"prefetch_cancelled"`
	PrefetchUseful    uint64 `json:"prefetch_useful"`
	// TraceLen is the request-trace ring occupancy (see GET /v1/trace).
	TraceLen int `json:"trace_len"`
	// EstWaitMS estimates how long a new arrival of each class would queue
	// before dispatch (EWMA job duration × slots ahead) — the signal
	// admission control sheds on, exposed so operators and the routing
	// tier can see shedding coming before it starts.
	EstWaitInteractiveMS int64 `json:"est_wait_interactive_ms"`
	EstWaitBackgroundMS  int64 `json:"est_wait_background_ms"`
	// JobsPending and JobsRunning are job-store gauges over the retained
	// records (pending = queued), complementing the JobsDone/JobsFailed
	// counters above.
	JobsPending int `json:"jobs_pending"`
	JobsRunning int `json:"jobs_running"`
	// Async sweep-handle gauges: handles by state, every handle the store
	// retains (running or terminal — the population SweepHistory caps), and
	// handles dropped by TTL/max-entries eviction (polling an evicted
	// handle returns 410).
	SweepsRunning  int    `json:"sweeps_running"`
	SweepsDone     int    `json:"sweeps_done"`
	SweepsFailed   int    `json:"sweeps_failed"`
	SweepsEvicted  uint64 `json:"sweeps_evicted"`
	SweepsRetained int    `json:"sweeps_retained"`
	// Draining reports a daemon that has stopped accepting new jobs and is
	// finishing its in-flight work before shutdown or removal from a fleet.
	Draining bool `json:"draining,omitempty"`
	// Backlog is the configured backlog capacity QueueDepth saturates at.
	Backlog        int               `json:"backlog"`
	JobWorkers     int               `json:"job_workers"`
	EvalWorkers    int               `json:"eval_workers"`
	SchemeVersion  int               `json:"scheme_version"`
	SnapshotPath   string            `json:"snapshot_path,omitempty"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	CandidateCache search.CacheStats `json:"candidate_cache"`
	EvalCache      search.CacheStats `json:"eval_cache"`
}

// Add sums another daemon's counters, gauges and cache stats into s (the
// router's fleet aggregate). EstWait*MS, Draining, SchemeVersion,
// SnapshotPath and UptimeSeconds are not sums and are left untouched.
func (s *Stats) Add(o Stats) {
	s.JobsSubmitted += o.JobsSubmitted
	s.JobsCoalesced += o.JobsCoalesced
	s.JobsDone += o.JobsDone
	s.JobsFailed += o.JobsFailed
	s.JobsRejected += o.JobsRejected
	s.JobsExpired += o.JobsExpired
	s.JobsShed += o.JobsShed
	s.JobsEvicted += o.JobsEvicted
	s.SweepsRun += o.SweepsRun
	s.QueueDepth += o.QueueDepth
	s.JobsInFlight += o.JobsInFlight
	s.QueueInteractive += o.QueueInteractive
	s.QueueSweepLeg += o.QueueSweepLeg
	s.QueueBackground += o.QueueBackground
	s.QueuePrefetch += o.QueuePrefetch
	s.HitsDemand += o.HitsDemand
	s.HitsPrefetch += o.HitsPrefetch
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchCancelled += o.PrefetchCancelled
	s.PrefetchUseful += o.PrefetchUseful
	s.TraceLen += o.TraceLen
	s.JobsPending += o.JobsPending
	s.JobsRunning += o.JobsRunning
	s.SweepsRunning += o.SweepsRunning
	s.SweepsDone += o.SweepsDone
	s.SweepsFailed += o.SweepsFailed
	s.SweepsEvicted += o.SweepsEvicted
	s.SweepsRetained += o.SweepsRetained
	s.Backlog += o.Backlog
	s.JobWorkers += o.JobWorkers
	s.EvalWorkers += o.EvalWorkers
	s.CandidateCache.Hits += o.CandidateCache.Hits
	s.CandidateCache.Misses += o.CandidateCache.Misses
	s.CandidateCache.Size += o.CandidateCache.Size
	s.EvalCache.Hits += o.EvalCache.Hits
	s.EvalCache.Misses += o.EvalCache.Misses
	s.EvalCache.Size += o.EvalCache.Size
}

// DedupRate returns coalesced / submitted-including-coalesced, the service
// analogue of a cache hit rate.
func (s Stats) DedupRate() float64 {
	total := s.JobsSubmitted + s.JobsCoalesced
	if total == 0 {
		return 0
	}
	return float64(s.JobsCoalesced) / float64(total)
}

// Options configure a Server.
type Options struct {
	// EvalWorkers sizes each job's candidate-evaluation pool (sched
	// Options.Workers): 0 = all CPUs, 1 = sequential.
	EvalWorkers int
	// JobWorkers bounds the number of jobs running concurrently
	// (default 1: one search already saturates the evaluation pool).
	JobWorkers int
	// Backlog bounds the queued-job backlog (default 64); submissions
	// beyond it are rejected with ErrBusy.
	Backlog int
	// ClassBudgets caps the queued backlog per priority class (indexed by
	// pool.Class; 0 = uncapped). Budgets bite only while every job worker
	// is busy, so an idle daemon still takes any class. A submission over
	// its class budget is shed with a ShedError (HTTP 429 + Retry-After)
	// rather than ErrBusy: background work is given the smallest budget so
	// it sheds first, interactive the largest so it sheds last.
	ClassBudgets [pool.NumClasses]int
	// History bounds the retained job records (default 1024). A resident
	// daemon would otherwise grow without bound: every completed job pins
	// its full canonical exploration record (~130 KB per
	// single-architecture search). Past the bound the earliest-finished
	// records are evicted first, so a fresh result outlives every record
	// that finished before it; queued and running jobs are never evicted
	// (the bound is exceeded instead).
	History int
	// HistoryTTL additionally expires terminal job records by age
	// (default 1 hour; negative = no TTL): a long-lived daemon with light
	// traffic should not pin hours-old exploration records just because
	// the History cap was never reached. Evicted job IDs answer 410.
	HistoryTTL time.Duration
	// SweepTTL and SweepHistory bound the async sweep-handle store:
	// terminal handles expire after SweepTTL (default 15 minutes) and the
	// store retains at most SweepHistory handles (default 256), oldest
	// finished first. Live handles are never evicted; polling an evicted
	// handle returns 410 Gone.
	SweepTTL     time.Duration
	SweepHistory int
	// SnapshotPath enables cache snapshot persistence when non-empty.
	SnapshotPath string
	// Prefetch enables the speculative cache-warming lane: after each
	// completed demand job the daemon predicts its sweep neighbors from
	// the request trace and pre-evaluates the top PrefetchFanout of them
	// at prefetch priority whenever the queue is idle. Off by default —
	// speculation costs CPU a single-tenant batch run may not want to
	// spend. The trace itself is always recorded (it is cheap and powers
	// GET /v1/trace even with the lane off).
	Prefetch bool
	// PrefetchFanout bounds the predictions issued per completed demand
	// job (default 3).
	PrefetchFanout int
	// TraceCapacity bounds the request-trace ring (default
	// prefetch.DefaultCapacity).
	TraceCapacity int
}

// ErrBusy reports a submission rejected because the job backlog is full.
var ErrBusy = errors.New("service: job backlog full")

// ErrDraining reports a submission rejected because the daemon is draining:
// it is finishing in-flight work ahead of shutdown or fleet removal and must
// not take on jobs whose results nobody would route a poll to.
var ErrDraining = errors.New("service: daemon is draining")

// ErrShutdown is the error of a job the daemon's Close stopped before it
// ran: the work was never attempted, so a routing tier may re-dispatch it.
var ErrShutdown = errors.New("service: daemon shut down before the job ran")

// ShedError reports a submission refused by overload protection — the class
// backlog budget is exhausted, or the estimated queue wait already exceeds
// the request's deadline so accepting it would only burn capacity on work
// destined to expire. It maps to HTTP 429 with RetryAfter as the Retry-After
// hint (when the backlog should have drained enough to try again).
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("service: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// retryAfterHint turns an estimated queue wait into a usable Retry-After:
// at least one second (the HTTP header has second granularity and a zero
// hint reads as "immediately", which would re-trigger the same rejection).
func retryAfterHint(wait time.Duration) time.Duration {
	if wait < time.Second {
		return time.Second
	}
	return wait.Round(time.Second)
}

// job is the scheduling state of a queued or running job; its record lives
// in the Server's store. All fields are guarded by Server.mu.
type job struct {
	id, fp string
	// class is the highest class submitted for the job: a speculation a
	// demand duplicate coalesced onto is demand work, never preempted.
	class pool.Class
	// deadline is the latest deadline across the coalesced submitters
	// (zero = none); it stops the job only while it is queued.
	deadline time.Time
	// ticket is the job's queue position while queued — the Promote
	// handle an interactive duplicate uses to drag a queued sweep leg up
	// to its own urgency, and the Cancel handle stopLocked uses. Inert
	// once the job starts.
	ticket *pool.Ticket
	// expireTimer fires at the deadline to stop the job while queued.
	expireTimer *time.Timer
	running     bool // a worker took the job: nothing stops it now
}

// Server is the evaluation service.
type Server struct {
	opts    Options
	pred    predictor.Predictor
	queue   *pool.Queue
	start   time.Time
	records *jobs.Store[Job]
	sweeps  *SweepEngine
	trace   *prefetch.Trace[TracePoint]

	mu       sync.Mutex
	inflight map[string]*job // fingerprint → queued/running job
	stats    Stats
	draining bool
	// warmed tracks fingerprints executed to completion on this daemon and
	// which lane warmed them — the warm-hit attribution table and the
	// prefetcher's already-warm filter. Bounded FIFO (warmOrder).
	warmed    map[string]*warmRecord
	warmOrder []string
}

// warmRecord attributes one completed fingerprint to the lane that executed
// it. usedByDemand flips on the first demand submission served warm from a
// prefetched entry, so PrefetchUseful counts distinct useful predictions
// while HitsPrefetch counts every warm serve.
type warmRecord struct {
	byPrefetch   bool
	usedByDemand bool
}

// warmedCap bounds the warm-fingerprint attribution table; far above any
// realistic working set (the eval caches behind it hold fewer entries), so
// FIFO eviction only guards against unbounded growth on a very long-lived
// daemon.
const warmedCap = 4096

// defaultPredictor is the shared predictor identity of every server built
// with a nil predictor. It must be one instance, not one per server: the
// caches are process-global and their keys embed the predictor's cache ID
// (search.PredictorID), so two default servers in one process — a test
// fleet, an embedded daemon pair — must agree on that identity for their
// cache entries and snapshots to be interchangeable, exactly as two default
// daemons in separate processes agree by each registering first.
var defaultPredictor = sync.OnceValue(func() predictor.Predictor {
	return predictor.NewLookupTable(predictor.TileLevel{})
})

// NewServer returns a started (but not yet serving) evaluation service
// sharing the process-wide caches. Callers own pred's identity: reusing one
// predictor across restarts (the default stack) is what keeps snapshot keys
// valid.
func NewServer(opts Options, pred predictor.Predictor) *Server {
	if pred == nil {
		pred = defaultPredictor()
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.Backlog <= 0 {
		opts.Backlog = 64
	}
	if opts.History <= 0 {
		opts.History = 1024
	}
	if opts.HistoryTTL == 0 {
		opts.HistoryTTL = time.Hour
	}
	s := &Server{
		opts:     opts,
		pred:     pred,
		queue:    pool.NewQueue(opts.JobWorkers, opts.Backlog),
		start:    time.Now(),
		records:  jobs.NewStore[Job](jobs.Options{Prefix: "job", TTL: opts.HistoryTTL, MaxEntries: opts.History}, nil),
		trace:    prefetch.NewTrace[TracePoint](opts.TraceCapacity),
		inflight: make(map[string]*job),
		warmed:   make(map[string]*warmRecord),
	}
	s.sweeps = &SweepEngine{
		Dispatch: s.dispatchLeg,
		Retention: func() jobs.Options {
			return jobs.Options{TTL: opts.SweepTTL, MaxEntries: opts.SweepHistory}
		},
	}
	s.queue.SetClassBudgets(opts.ClassBudgets)
	return s
}

// Predictor returns the server's predictor — the cache-identity anchor a
// snapshot is versioned by. A peer seeding from this server must hold an
// identical predictor stack for the seed to validate.
func (s *Server) Predictor() predictor.Predictor { return s.pred }

// Submit normalizes and enqueues a request. When an identical job is
// already queued or running, the submission coalesces onto it (singleflight)
// and the existing job is returned with coalesced=true.
func (s *Server) Submit(req Request) (Job, bool, error) {
	norm, err := req.Normalize()
	if err != nil {
		return Job{}, false, err
	}
	fp := norm.Fingerprint()

	now := time.Now()
	deadline := norm.Deadline(now)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.stats.JobsRejected++
		return Job{}, false, ErrDraining
	}
	if norm.class() == pool.Prefetch {
		// Speculative submissions take the gated side entrance: admitted
		// only into idle capacity, evicted on demand arrival, and invisible
		// to the demand counters and trace.
		return s.submitPrefetchLocked(norm, fp, now)
	}
	// Record the demand request in the locality trace. Coalesced and fresh
	// submissions both count — each is a real arrival the predictor should
	// learn from — while speculative (prefetch-lane) traffic never does, or
	// the predictor would learn its own guesses.
	s.trace.Observe(fp, now, norm.TracePoint())
	if j, ok := s.inflight[fp]; ok {
		s.stats.JobsCoalesced++
		// Priority-inversion avoidance: an interactive duplicate of a
		// queued sweep leg must not inherit the leg's bulk priority — the
		// queued job is promoted to the duplicate's class in place, so the
		// waiting user is served at interactive urgency while the sweep
		// still gets the shared result.
		s.queue.Promote(j.ticket, norm.class(), norm.Criticality)
		j.class = max(j.class, norm.class())
		return s.updateLocked(j, func(r *Job) {
			r.Coalesced++
			// Deadline extension mirrors Promote (raise-only): a duplicate
			// with a later deadline — or none — must not lose the shared
			// result to the first submitter's tighter budget.
			s.extendDeadlineLocked(j, r, deadline)
		}), true, nil
	}
	// Warm-hit attribution: this fingerprint has already been executed to
	// completion here, so the job about to run will be served from the warm
	// caches — credit whichever lane warmed it.
	s.noteWarmHitLocked(fp)
	// Estimated-wait admission: refuse a deadlined request whose queue wait
	// alone would already blow its budget — accepting it wastes backlog
	// space on work destined to expire, and the caller learns *now* (429 +
	// Retry-After) instead of after the budget is gone.
	if !deadline.IsZero() {
		if wait := s.queue.EstimatedWait(norm.class(), norm.Criticality); now.Add(wait).After(deadline) {
			s.stats.JobsShed++
			return Job{}, false, &ShedError{
				Reason:     fmt.Sprintf("estimated queue wait %s exceeds deadline budget %dms", wait.Round(time.Millisecond), norm.DeadlineMS),
				RetryAfter: retryAfterHint(wait),
			}
		}
	}
	rec, err := s.enqueueLocked(norm, fp, now, deadline)
	if err != nil {
		if errors.Is(err, pool.ErrClassOverBudget) {
			s.stats.JobsShed++
			return Job{}, false, &ShedError{
				Reason:     fmt.Sprintf("%s backlog budget exhausted", norm.class()),
				RetryAfter: retryAfterHint(s.queue.EstimatedWait(norm.class(), norm.Criticality)),
			}
		}
		s.stats.JobsRejected++
		return Job{}, false, ErrBusy
	}
	s.stats.JobsSubmitted++
	return rec, false, nil
}

// enqueueLocked is the one job-creation path of Submit and
// submitPrefetchLocked. Demand work first preempts every queued speculation
// no demand duplicate has adopted, so a backlog full of guesses never
// refuses it. It then reserves the queue slot before the job exists:
// TrySubmitTask never blocks, so holding s.mu here is safe, and a refusal
// leaves nothing behind. Only then does the job get its record and ID.
// The task takes s.mu, so it cannot see the job half-registered.
func (s *Server) enqueueLocked(norm Request, fp string, now, deadline time.Time) (Job, error) {
	j := &job{fp: fp, class: norm.class(), deadline: deadline}
	if j.class > pool.Prefetch {
		for _, o := range s.inflight {
			if o.class == pool.Prefetch && !o.running {
				s.stopLocked(o, StateCancelled)
			}
		}
	}
	// The queue retires the task before it runs the step Fn returns, so the
	// job is published terminal only once it no longer counts as in flight.
	task := pool.Task{Fn: func() func() { return s.run(j) }, Class: j.class, Crit: norm.Criticality}
	var err error
	if j.ticket, err = s.queue.TrySubmitTask(task); err != nil {
		return Job{}, err
	}
	var rec Job
	j.id, rec = s.records.Create(func(id string) Job {
		return Job{ID: id, Fingerprint: fp, State: StateQueued, Request: norm, SubmittedAt: now, Deadline: deadline}
	})
	s.inflight[fp] = j
	s.armLocked(j)
	return rec, nil
}

// updateLocked mutates a live job's record and returns the updated copy.
func (s *Server) updateLocked(j *job, fn func(*Job)) Job {
	var out Job
	s.records.Update(j.id, func(r *Job) {
		fn(r)
		out = *r
	})
	return out
}

// queuedLocked reports whether j is still waiting in the queue: neither
// running nor terminal.
func (s *Server) queuedLocked(j *job) bool { return s.inflight[j.fp] == j && !j.running }

// armLocked (re)starts the job's expiry timer for its deadline while it is
// queued, and otherwise just stops it. The timer stops the job through the
// same check dispatch makes, so a waiting client learns of the expiry
// promptly, not only when a worker finally reaches the slot.
func (s *Server) armLocked(j *job) {
	if j.expireTimer != nil {
		j.expireTimer.Stop()
		j.expireTimer = nil
	}
	if s.queuedLocked(j) && !j.deadline.IsZero() {
		j.expireTimer = time.AfterFunc(time.Until(j.deadline), func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.expireDueLocked(j)
		})
	}
}

// expireDueLocked stops a queued job whose deadline has passed, and reports
// whether it did. It reads the deadline under s.mu, so a timer that fired
// while a coalescing duplicate was extending or clearing the deadline finds
// nothing due.
func (s *Server) expireDueLocked(j *job) bool {
	if !s.queuedLocked(j) || j.deadline.IsZero() || time.Now().Before(j.deadline) {
		return false
	}
	s.stopLocked(j, StateExpired)
	return true
}

// extendDeadlineLocked raises (or clears) a queued job's deadline, mirrored
// in its record r, to a later coalescing submitter's budget. Zero
// newDeadline means the duplicate has no deadline: the job's own is
// cleared, since at least one waiter is patient.
func (s *Server) extendDeadlineLocked(j *job, r *Job, newDeadline time.Time) {
	if j.running || j.deadline.IsZero() {
		return // running jobs finish regardless; no deadline to extend
	}
	if !newDeadline.IsZero() && !newDeadline.After(j.deadline) {
		return
	}
	j.deadline, r.Deadline = newDeadline, newDeadline
	s.armLocked(j)
}

// finishLocked takes a queued or running job terminal: its scheduling state
// ends, and the record's terminal Update wakes its waiters.
func (s *Server) finishLocked(j *job, fn func(*Job)) {
	delete(s.inflight, j.fp)
	s.armLocked(j)
	s.records.Update(j.id, func(r *Job) {
		fn(r)
		r.FinishedAt = time.Now()
	})
}

// stopLocked is the one place a job that never ran is stopped: deadline
// expiry (timer and dispatch), demand preemption of queued speculation, and
// shutdown. In one s.mu hold it pulls the ticket from the backlog (a no-op
// once a worker popped it — run then declines) and writes the terminal
// record with the state's counter and reason, so a coalescing submission
// either adopts the job before the stop, and its deadline or class then
// governs, or finds it gone.
func (s *Server) stopLocked(j *job, state State) {
	s.queue.Cancel(j.ticket)
	s.finishLocked(j, func(r *Job) {
		r.State = state
		switch state {
		case StateExpired:
			s.stats.JobsExpired++
			r.Error = fmt.Sprintf("deadline exceeded: %dms budget elapsed while queued", r.Request.DeadlineMS)
		case StateCancelled:
			s.stats.PrefetchCancelled++
			r.Error = "prefetch cancelled: demand work arrived"
		default:
			s.stats.JobsFailed++
			r.Error = ErrShutdown.Error()
		}
	})
}

// run is the job's queue task. It executes the job unless the job table
// stopped it or its deadline passed while it was queued, and returns the
// step that settles it — nil when the job did not run, so the dispatch
// adds no duration sample.
func (s *Server) run(j *job) (settle func()) {
	s.mu.Lock()
	if !s.queuedLocked(j) || s.expireDueLocked(j) {
		s.mu.Unlock()
		return nil
	}
	// Once running, the job finishes regardless of deadline: the work is
	// not abandonable mid-simulation, and its result warms the shared
	// caches either way. Deadline enforcement on in-flight work is the
	// caller's side (the router abandons expired legs).
	j.running = true
	s.armLocked(j)
	req := s.updateLocked(j, func(r *Job) {
		r.State = StateRunning
		r.StartedAt = time.Now()
	}).Request
	s.mu.Unlock()

	res, err := s.execute(req)
	return func() { s.settle(j, req, res, err) }
}

// settle publishes a finished execution: the terminal record, the counters,
// the warm table and, after demand work, the next prefetch prediction.
func (s *Server) settle(j *job, req Request, res *Result, err error) {
	speculative := req.class() == pool.Prefetch
	s.mu.Lock()
	s.finishLocked(j, func(r *Job) {
		if err != nil {
			r.State, r.Error = StateFailed, err.Error()
		} else {
			r.State, r.Result = StateDone, res
		}
	})
	switch {
	case speculative:
		// Speculation stays out of the demand counters; a failed one (e.g.
		// an infeasible predicted neighbor) is not a demand fault.
	case err != nil:
		s.stats.JobsFailed++
	default:
		s.stats.JobsDone++
	}
	if err == nil {
		s.markWarmedLocked(j.fp, speculative)
	}
	prefetchNext := err == nil && !speculative && s.opts.Prefetch && !s.draining
	s.mu.Unlock()
	if prefetchNext {
		// Prediction rides its own goroutine: it submits into the queue,
		// and this worker slot should go back to draining demand work.
		go s.predictAndPrefetch(req, j.fp)
	}
}

// execute runs the co-exploration exactly as the watos CLI does in-process.
func (s *Server) execute(req Request) (*Result, error) {
	spec, err := cliutil.Model(req.Model)
	if err != nil {
		return nil, err
	}
	candidates, err := cliutil.ArchCandidates(req.Config)
	if err != nil {
		return nil, err
	}
	work := req.Workload()
	fw := core.New()
	fw.Predictor = s.pred
	fw.Options = sched.Options{
		UseGA:          req.UseGA,
		MaxTP:          req.MaxTP,
		FixedTP:        req.FixedTP,
		FixedPP:        req.FixedPP,
		PipelineWafers: req.PipelineWafers,
		Seed:           req.Seed,
		Workers:        s.opts.EvalWorkers,
	}
	res, err := fw.Explore(candidates, spec, work)
	if err != nil {
		return nil, err
	}
	out := BuildResult(res)
	// Stamp the versioning a completed-result cache invalidates by.
	out.SchemeVersion = search.FingerprintSchemeVersion
	out.PredictorID = search.PredictorID(s.pred)
	return out, nil
}

// BuildResult flattens a co-exploration into the wire Result. The CLI uses
// it on its local path too, so local and remote runs render one summary
// from one representation.
func BuildResult(res *core.ExploreResult) *Result {
	b := res.Best.Result.Best
	out := &Result{
		BestArch:            res.Best.Wafer.Name,
		TP:                  b.TP,
		PP:                  b.PP,
		DP:                  b.Report.DP,
		Collective:          b.Collective.String(),
		IterationTime:       b.Report.IterationTime,
		Throughput:          b.Report.Throughput,
		TotalThroughput:     b.Report.TotalThroughput,
		RecomputeFraction:   b.Report.RecomputeFraction,
		BubbleFraction:      b.Report.BubbleFraction,
		ComputeUtilization:  b.Report.ComputeUtilization,
		DRAMUtilization:     b.Report.DRAMUtilization,
		MeanLinkUtilization: b.Report.MeanLinkUtilization,
		Explored:            len(res.Best.Result.Explored),
		Pruned:              res.Best.Result.PrunedCount,
		Canonical:           Canonical(res),
	}
	if b.Strategy.Recompute != nil {
		out.MemPairs = len(b.Strategy.Recompute.Pairs)
		out.OverflowBytes = b.Strategy.Recompute.OverflowBytes
	}
	for _, ar := range res.PerArch {
		as := ArchSummary{Name: ar.Wafer.Name, Status: "ok"}
		switch {
		case ar.Err != nil:
			as.Status = ar.Err.Error()
		case ar.Result != nil && ar.Result.Best != nil:
			as.Throughput = ar.Result.Best.Report.Throughput
			as.TP = ar.Result.Best.TP
			as.PP = ar.Result.Best.PP
		}
		out.PerArch = append(out.PerArch, as)
	}
	return out
}

// Canonical renders a full co-exploration canonically: one header line per
// architecture candidate followed by the candidate's canonical exploration
// record (sched.RenderCandidate). For a single-architecture job this is
// exactly "arch=<name> err=<nil>\n" + sched.Result.Canonical(), which is
// how the service proves byte-identity with an in-process search.
func Canonical(res *core.ExploreResult) string {
	var b strings.Builder
	for _, ar := range res.PerArch {
		fmt.Fprintf(&b, "arch=%s err=%v\n", ar.Wafer.Name, ar.Err)
		if ar.Result != nil {
			b.WriteString(ar.Result.Canonical())
		}
	}
	return b.String()
}

// Job returns a snapshot of one job: jobs.ErrGone once its record has been
// evicted from history (HTTP 410), jobs.ErrUnknown for an ID this daemon
// never issued (404).
func (s *Server) Job(id string) (Job, error) { return s.records.Get(id) }

// Jobs lists the retained jobs in submission order.
func (s *Server) Jobs() []Summary {
	out := []Summary{}
	s.records.Each(func(_ string, j Job) {
		out = append(out, Summary{
			ID:          j.ID,
			Fingerprint: j.Fingerprint,
			State:       j.State,
			Model:       j.Request.Model,
			Config:      j.Request.Config,
			Coalesced:   j.Coalesced,
			SubmittedAt: j.SubmittedAt,
		})
	})
	return out
}

// Wait blocks until the job reaches a terminal state and returns it.
func (s *Server) Wait(id string) (Job, error) {
	return s.records.Wait(context.Background(), id)
}

// BeginDrain flips the daemon into draining: new submissions are rejected
// with ErrDraining and the health endpoint turns unhealthy so a routing tier
// excludes the shard, while jobs already queued or running finish and their
// results stay pollable. Idempotent; there is no undrain — the next step is
// snapshot handoff and shutdown.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Stats snapshots the service counters and the shared cache statistics.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Draining = s.draining
	for _, j := range s.inflight {
		if j.running {
			st.JobsRunning++
		} else {
			st.JobsPending++
		}
	}
	s.mu.Unlock()
	st.JobsEvicted = s.records.Evicted()
	st.QueueDepth = s.queue.Depth()
	st.JobsInFlight = s.queue.InFlight()
	depths := s.queue.ClassDepths()
	st.QueueInteractive = depths[pool.Interactive]
	st.QueueSweepLeg = depths[pool.SweepLeg]
	st.QueueBackground = depths[pool.Background]
	st.QueuePrefetch = depths[pool.Prefetch]
	st.TraceLen = s.trace.Len()
	st.EstWaitInteractiveMS = s.queue.EstimatedWait(pool.Interactive, 0).Milliseconds()
	st.EstWaitBackgroundMS = s.queue.EstimatedWait(pool.Background, 0).Milliseconds()
	st.SweepsRun = s.sweeps.Merged()
	s.sweeps.AddGauges(&st)
	st.Backlog = s.opts.Backlog
	st.JobWorkers = s.opts.JobWorkers
	st.EvalWorkers = s.opts.EvalWorkers
	st.SchemeVersion = search.FingerprintSchemeVersion
	st.SnapshotPath = s.opts.SnapshotPath
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.CandidateCache = sched.CacheStats()
	st.EvalCache = search.DefaultCache().Stats()
	return st
}

// Close shuts the service down with bounded latency: jobs already running
// finish, the queued backlog is dropped (with the frontend down nobody can
// collect those results, and an unbounded drain would outlive any
// supervisor's kill timeout and lose the snapshot), still-queued jobs are
// marked failed, and a final cache snapshot is persisted when a snapshot
// path is configured.
func (s *Server) Close() error {
	s.queue.CloseDiscard()
	// CloseDiscard has joined the workers, so no job is running or
	// settling: every job still in flight is a dropped backlog entry.
	s.mu.Lock()
	for _, j := range s.inflight {
		s.stopLocked(j, StateFailed)
	}
	s.mu.Unlock()
	if s.opts.SnapshotPath == "" {
		return nil
	}
	_, err := s.SaveSnapshot()
	return err
}

// CloseGraceful is the drain shutdown: submissions are refused from here on
// (BeginDrain), every job already accepted — queued or running — executes to
// completion, and only then does the usual close bookkeeping and final
// snapshot run. With the drain flag up the accepted set is finite, so this
// terminates; Close remains the bounded-latency path that drops the backlog.
func (s *Server) CloseGraceful() error {
	s.BeginDrain()
	s.queue.Close()
	return s.Close()
}

// AbortDrain cuts a CloseGraceful drain short from another goroutine (the
// second-signal path of a daemon shutdown): queued jobs not yet started are
// skipped — the close bookkeeping then marks them failed — while running
// jobs still finish.
func (s *Server) AbortDrain() { s.queue.Discard() }
