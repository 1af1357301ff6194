package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
)

// API surface (all JSON):
//
//	POST /v1/jobs       submit a Request; 202 + Job when queued, 200 + Job
//	                    when coalesced onto an identical in-flight job,
//	                    400 on a bad request, 503 when the backlog is full
//	GET  /v1/jobs       list job summaries in submission order
//	GET  /v1/jobs/{id}  one job, including its Result when done; 410 once
//	                    the record has been evicted from history, 404 for
//	                    an ID never issued
//	POST /v1/sweeps     scatter a sweep Request into prioritized
//	                    per-architecture legs; async by default — 202 +
//	                    SweepStatus handle, poll GET /v1/sweeps/{id} for
//	                    incremental per-leg results. ?wait=1 blocks and
//	                    answers 200 + SweepResult (the pre-async contract).
//	GET  /v1/sweeps     list sweep-handle summaries
//	GET  /v1/sweeps/{id} one sweep handle, legs filling in as they
//	                    complete; 410 once the handle has been evicted, 404
//	                    for an ID never issued
//	GET  /v1/stats      Stats: job counters, dedup rate, per-priority queue
//	                    occupancy gauges, sweep-handle gauges, cache
//	                    statistics
//	POST /v1/snapshot   persist the cache snapshot now; 200 + SnapshotInfo
//	GET  /v1/snapshot   stream the versioned cache snapshot (gob) — the pull
//	                    a cold shard seeds its caches from on join
//	PUT  /v1/snapshot   restore the caches from a streamed snapshot — the
//	                    push a draining shard hands its slice over with;
//	                    200 + SnapshotInfo, 409 when the snapshot is stale
//	POST /v1/drain      flip into draining (reject new jobs, health goes
//	                    503) ahead of snapshot handoff and removal
//	GET  /v1/healthz    liveness probe; 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.sweeps.Routes(mux, WriteSubmitError)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshotPull)
	mux.HandleFunc("PUT /v1/snapshot", s.handleSnapshotPush)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

// WriteJSON renders v as the JSON response body with the given status —
// the one JSON writer of both tiers' handlers.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// WriteError renders the {"error": msg} body with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}

// MaxRequestBytes bounds a job-submission body; a Request is a handful of
// short fields, so anything near the bound is garbage and a streaming
// client cannot pin handler memory.
const MaxRequestBytes = 1 << 20

// DecodeBody decodes a bounded JSON request body into v. A typo'd field
// must fail loudly, not silently run the default job, so unknown fields
// are an error.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// SetRetryAfter stamps the standard backoff hint (whole seconds, rounded
// up, minimum 1 — zero reads as "immediately").
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// WriteSubmitError renders a submission error with the overload-protection
// status split both daemons share: shedding is 429 + Retry-After (the class
// budget or the request's own deadline refused it — back off and retry),
// plain backpressure and draining are 503 (a full backlog also carries
// Retry-After since it clears as the queue drains; draining does not — this
// daemon is leaving and retries belong elsewhere), anything else is the
// caller's 400.
func WriteSubmitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		SetRetryAfter(w, shed.RetryAfter)
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrBusy):
		SetRetryAfter(w, time.Second)
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// LookupStatus converts the handle-store sentinels into the HTTP status a
// handle lookup answers on both tiers, for GET /v1/jobs/{id} and GET
// /v1/sweeps/{id} alike: 410 for an evicted handle, 404 for one never
// issued.
func LookupStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrGone):
		return http.StatusGone
	case errors.Is(err, jobs.ErrUnknown):
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := DecodeBody(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, coalesced, err := s.Submit(req)
	switch {
	case err != nil:
		WriteSubmitError(w, err)
	case coalesced:
		WriteJSON(w, http.StatusOK, j)
	default:
		WriteJSON(w, http.StatusAccepted, j)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.Job(id)
	if err != nil {
		WriteError(w, LookupStatus(err), "job "+id+": "+err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, j)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Trace())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	info, err := s.SaveSnapshot()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// handleSnapshotPull streams the live cache snapshot (header+body gob, the
// snapshot-file layout) so a joining shard can seed its caches from a warm
// peer. The receiver validates the versioned header and discards mismatched
// schemes, so serving the stream is always safe.
func (s *Server) handleSnapshotPull(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := s.WriteSnapshotTo(w); err != nil {
		// Headers are already out; the truncated gob stream fails the
		// receiver's decode, which is the correct failure signal mid-stream.
		return
	}
}

// handleSnapshotPush restores the caches from a snapshot streamed in the
// request body — the receiving half of a drain: the inheritors of a
// departing shard's fingerprints absorb its warm slice before the shard is
// removed, so their first post-drain hits are warm. A scheme or predictor
// mismatch is a 409: the pusher's keys cannot be trusted here.
func (s *Server) handleSnapshotPush(w http.ResponseWriter, r *http.Request) {
	info, err := s.RestoreSnapshotFrom(r.Body)
	switch {
	case errors.Is(err, ErrStaleSnapshot):
		WriteError(w, http.StatusConflict, err.Error())
	case err != nil:
		WriteError(w, http.StatusBadRequest, err.Error())
	default:
		WriteJSON(w, http.StatusOK, info)
	}
}

// handleDrain flips the daemon into draining (idempotent): the routing tier
// calls it first in a DELETE /v1/shards flow so the victim stops taking work
// while its snapshot is handed to the inheritors.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	WriteJSON(w, http.StatusOK, s.Stats())
}

// handleHealth is the routing tier's admission signal, so a draining daemon
// reports unhealthy: it still answers job polls and snapshot pulls, but must
// stop receiving new routed work immediately.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
