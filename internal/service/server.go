package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"voltnoise/internal/progress"
	"voltnoise/internal/service/journal"
	"voltnoise/internal/service/store"
)

// Config parameterizes a Server.
type Config struct {
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64). Submissions beyond it are rejected with 429 —
	// back-pressure, not buffering. Jobs recovered from the journal
	// are exempt: the queue is grown to fit them.
	QueueDepth int
	// PoolSize is the number of concurrent study workers (default 2).
	// Each study additionally fans its own measurements out per the
	// request's Workers knob.
	PoolSize int
	// Store is the result-store backend (default: an in-memory LRU of
	// 256 results; store.NewMemory(0) disables caching). Use
	// store.NewTiered over store.NewDisk for results that survive
	// restarts. Backend
	// failures never fail a study — they degrade to recomputes and
	// surface via /metrics and /readyz.
	Store store.Store
	// Journal, when set, is the write-ahead job journal: submissions
	// are journaled before they are enqueued and the server re-enqueues
	// the journal's still-pending jobs at construction, so a crash
	// costs only the in-flight computation. The server appends to and
	// compacts the journal but does not own it — the caller opens and
	// closes it.
	Journal *journal.Journal
	// Runner executes studies (default: NewLabRunner on the calibrated
	// platform).
	Runner Runner
	// EventBuffer caps each job's retained event window (default 1024).
	// A stream resumed from before the window is answered with 410 Gone
	// and the client falls back to GET /v1/jobs/{id}/result.
	EventBuffer int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.Store == nil {
		c.Store = store.NewMemory(256)
	}
	if c.Runner == nil {
		c.Runner = NewLabRunner()
	}
	return c
}

// Errors mapped to HTTP status codes by the handlers; exported so the
// queue semantics are testable without HTTP.
var (
	// ErrQueueFull rejects a submission when the job queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects a submission during graceful shutdown
	// (HTTP 503).
	ErrDraining = errors.New("service: server draining")
)

// Server is the voltnoised characterization service: a bounded job
// queue and worker pool over a Runner, fronted by the v1 HTTP/JSON
// API, with content-addressed result caching and singleflight
// deduplication of identical in-flight requests.
type Server struct {
	cfg     Config
	runner  Runner
	mux     *http.ServeMux
	cache   *Cache
	journal *journal.Journal
	met     *metrics

	mu             sync.Mutex
	jobs           map[string]*job
	inflight       map[string]*job // canonical hash -> queued/running job
	seq            int64
	draining       bool
	lastJournalErr string

	queue chan *job
	wg    sync.WaitGroup
}

// NewServer builds the service and starts its worker pool. Callers
// serve it over HTTP (it implements http.Handler) and stop it with
// Shutdown. When cfg.Journal is set, the journal's still-pending jobs
// are recovered (completed straight from the store when the result is
// already durable, re-enqueued otherwise) before the pool starts.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cache := NewCache(cfg.Store)
	var pending []journal.Pending
	if cfg.Journal != nil {
		pending = cfg.Journal.Pending()
	}
	// Recovered jobs must all fit the queue before workers start.
	queueCap := cfg.QueueDepth
	if len(pending) > queueCap {
		queueCap = len(pending)
	}
	s := &Server{
		cfg:      cfg,
		runner:   cfg.Runner,
		cache:    cache,
		journal:  cfg.Journal,
		met:      newMetrics(),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		queue:    make(chan *job, queueCap),
	}
	s.recover(pending)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("POST /v1/studies", s.handleSyncStudy)
	s.mux.HandleFunc("GET /v1/studies", s.handleListStudies)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.PoolSize; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the service gracefully: new submissions are
// rejected with ErrDraining immediately and Shutdown returns once the
// pool is idle (or ctx expires). Without a journal, already-queued
// jobs run to completion (dropping them would lose them forever).
// With a journal, still-queued jobs are *parked* instead: their
// write-ahead acceptance records stay pending, the next start
// re-enqueues them, and only the currently-running studies are waited
// for. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit accepts a request: it normalizes and validates, consults the
// result cache, collapses onto an identical in-flight job when one
// exists (singleflight), or enqueues a new job. The returned status
// reports which path was taken. Errors: validation errors,
// ErrQueueFull, ErrDraining.
func (s *Server) Submit(req *Request) (*JobStatus, error) {
	j, st, err := s.submit(req)
	_ = j
	return st, err
}

func (s *Server) submit(req *Request) (*job, *JobStatus, error) {
	n, err := req.Normalize()
	if err != nil {
		return nil, nil, err
	}
	hash, err := n.Hash()
	if err != nil {
		return nil, nil, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, ErrDraining
	}
	// Content-addressed fast path: an identical configuration already
	// computed is served from the cache as an immediately-done job —
	// byte-identical to the original computation.
	if bytes, ok := s.cache.Get(hash); ok {
		s.seq++
		j := newCachedJob(jobID(s.seq), hash, n, bytes)
		j.hub = newEventHub(s.cfg.EventBuffer)
		s.publishEvent(j, &Event{Type: EventHello, State: StateDone, Request: j.req})
		s.publishEvent(j, &Event{Type: EventDone, State: StateDone,
			ResultHash: resultSum(bytes), ResultBytes: len(bytes)})
		s.jobs[j.id] = j
		return j, j.status(), nil
	}
	// Singleflight: an identical configuration already queued or
	// running is joined, not recomputed.
	if ex, ok := s.inflight[hash]; ok {
		s.met.jobDeduped()
		st := ex.status()
		st.Deduped = true
		return ex, st, nil
	}
	s.seq++
	j := newJob(jobID(s.seq), hash, n)
	j.hub = newEventHub(s.cfg.EventBuffer)
	select {
	case s.queue <- j:
	default:
		s.met.jobRejected()
		return nil, nil, ErrQueueFull
	}
	// Write-ahead: the accepted job hits the journal before the caller
	// hears "accepted", so a crash after this point re-enqueues it on
	// the next start. A journal failure is availability-over-
	// durability: the job still runs, the degradation is visible in
	// /metrics and /readyz.
	s.journalAccept(j)
	s.jobs[j.id] = j
	s.inflight[hash] = j
	s.met.jobQueued()
	s.publishEvent(j, &Event{Type: EventHello, State: StateQueued, Request: j.req})
	return j, j.status(), nil
}

// publishEvent stamps the event with the job's identity, publishes it
// on the job's hub and maintains the job/metrics counters. Safe with
// or without s.mu held (it takes only the hub's and job's own locks).
func (s *Server) publishEvent(j *job, e *Event) {
	if j.hub == nil {
		return
	}
	e.Job = j.id
	e.Study = j.req.Study
	trimmed := j.hub.publish(e)
	j.noteEvent(e)
	s.met.eventPublished(trimmed)
}

// progressSink adapts a job's study progress events — already
// converted to wire partial payloads by the runner — into published
// stream events.
func (s *Server) progressSink(j *job) progress.Sink {
	return func(e progress.Event) {
		raw, err := json.Marshal(e.Payload)
		if err != nil {
			return // wire partials always marshal
		}
		s.publishEvent(j, &Event{
			Type:        EventPartial,
			State:       StateRunning,
			Chunk:       e.Chunk,
			ChunksDone:  e.Done,
			ChunksTotal: e.Total,
			Partial:     raw,
		})
	}
}

// journalAccept appends the job's acceptance record. Caller holds
// s.mu (keeps journal order consistent with acceptance order).
func (s *Server) journalAccept(j *job) {
	if s.journal == nil {
		return
	}
	raw, err := json.Marshal(j.req)
	if err == nil {
		err = s.journal.Accept(j.id, j.hash, raw)
	}
	if err != nil {
		s.met.journalError()
		s.lastJournalErr = err.Error()
		return
	}
	s.lastJournalErr = ""
}

// journalFinish appends a terminal transition; called off the worker
// path without s.mu held.
func (s *Server) journalFinish(id string, state State) {
	if s.journal == nil {
		return
	}
	err := s.journal.Finish(id, string(state))
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.met.journalError()
		s.lastJournalErr = err.Error()
		return
	}
	s.lastJournalErr = ""
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.parkForRecovery() {
			// Draining with a journal: leave the job's acceptance
			// record pending so the next start re-enqueues it, instead
			// of racing the shutdown deadline to run it now.
			continue
		}
		s.runJob(j)
	}
}

// parkForRecovery reports whether still-queued jobs should be left to
// the journal (server draining and crash-safe) rather than run.
func (s *Server) parkForRecovery() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining && s.journal != nil
}

func (s *Server) runJob(j *job) {
	defer s.removeInflight(j)
	if j.ctx.Err() != nil || !j.setRunning() {
		j.finish(StateCanceled, nil, context.Canceled)
		s.publishEvent(j, &Event{Type: EventCanceled, State: StateCanceled, Error: context.Canceled.Error()})
		s.journalFinish(j.id, StateCanceled)
		s.met.jobCanceled()
		return
	}
	s.met.jobStarted()
	s.publishEvent(j, &Event{Type: EventStatus, State: StateRunning})
	start := time.Now()
	// The progress sink rides the job context so the Runner interface
	// stays payload-agnostic; the lab runner converts study partials to
	// wire payloads before they reach the sink.
	payload, err := s.runner.Run(progress.NewContext(j.ctx, s.progressSink(j)), j.req)
	var result []byte
	if err == nil {
		result, err = json.Marshal(payload)
	}
	elapsed := time.Since(start)
	switch {
	case err == nil:
		// Persist before journaling "done": a crash between the two
		// replays the job (wasted work, same bytes) instead of
		// journaling a result that was never stored.
		s.cache.Put(j.hash, result)
		j.finish(StateDone, result, nil)
		s.publishEvent(j, &Event{Type: EventDone, State: StateDone,
			ResultHash: resultSum(result), ResultBytes: len(result)})
		s.journalFinish(j.id, StateDone)
		s.met.jobFinished(j.req.Study, true, elapsed)
	case errors.Is(err, context.Canceled):
		j.finish(StateCanceled, nil, err)
		s.publishEvent(j, &Event{Type: EventCanceled, State: StateCanceled, Error: err.Error()})
		s.journalFinish(j.id, StateCanceled)
		s.met.runCanceled()
	default:
		j.finish(StateFailed, nil, err)
		s.publishEvent(j, &Event{Type: EventFailed, State: StateFailed, Error: err.Error()})
		s.journalFinish(j.id, StateFailed)
		s.met.jobFinished(j.req.Study, false, elapsed)
	}
}

func (s *Server) removeInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// --- HTTP layer -----------------------------------------------------

// maxBodyBytes bounds request bodies; study requests are small.
const maxBodyBytes = 1 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return nil, false
	}
	return &req, true
}

// submitCode maps a submit error to its HTTP status.
func submitCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// acceptSubmission is the single entry of the job pipeline behind
// both POST /v1/jobs and POST /v1/studies: decode, normalize, submit
// (cache → singleflight → journal → queue). On failure it writes the
// error response itself and reports ok=false; both endpoints stay
// wire-compatible because they share every acceptance decision here.
func (s *Server) acceptSubmission(w http.ResponseWriter, r *http.Request) (*job, *JobStatus, bool) {
	req, ok := decodeRequest(w, r)
	if !ok {
		return nil, nil, false
	}
	j, st, err := s.submit(req)
	if err != nil {
		code := submitCode(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, "%v", err)
		return nil, nil, false
	}
	return j, st, true
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	_, st, ok := s.acceptSubmission(w, r)
	if !ok {
		return
	}
	code := http.StatusAccepted
	if st.Status.Terminal() {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	statuses := make([]*JobStatus, len(ids))
	for i, id := range ids {
		statuses[i] = s.jobs[id].status()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": statuses})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	state, result, errText := j.snapshot()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Voltnoise-Cache", cacheHeader(j.cached))
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errText)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
		// Not finished yet: 202 with the status body so pollers can
		// reuse the response.
		writeJSON(w, http.StatusAccepted, j.status())
	}
}

// handleJobEvents serves the job's event stream as Server-Sent Events:
// each event is framed as "id: <seq>" / "event: <type>" / "data:
// <json>" and the stream stays open until the job's terminal event (or
// the client goes away). A reconnecting client resumes by sending the
// last seq it saw as the Last-Event-ID header (or ?from= query
// parameter); asking for events already trimmed from the retained
// window is answered with 410 Gone and a body naming the full-result
// fallback, GET /v1/jobs/{id}/result.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if j.hub == nil {
		writeError(w, http.StatusInternalServerError, "job %s has no event stream", j.id)
		return
	}
	after := int64(0)
	resumed := false
	cursor := r.Header.Get("Last-Event-ID")
	if cursor == "" {
		cursor = r.URL.Query().Get("from")
	}
	if cursor != "" {
		n, err := strconv.ParseInt(cursor, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad resume cursor %q", cursor)
			return
		}
		after, resumed = n, n > 0
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	// Subscribe before the first read so no event published in between
	// is missed.
	ch, unsub := j.hub.subscribe()
	defer unsub()
	evs, trimmed, closed := j.hub.since(after)
	if trimmed {
		s.met.streamGone()
		writeJSON(w, http.StatusGone, map[string]string{
			"error":  fmt.Sprintf("events up to seq %d trimmed from the retained window", after),
			"result": "/v1/jobs/" + j.id + "/result",
		})
		return
	}
	s.met.streamOpened(resumed)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		for _, e := range evs {
			if err := writeSSE(w, e); err != nil {
				return
			}
			after = e.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
		evs, trimmed, closed = j.hub.since(after)
		if trimmed {
			// The ring lapped this subscriber mid-stream; close so the
			// reconnect gets the documented 410 and falls back to the
			// full result.
			s.met.streamGone()
			return
		}
	}
}

// writeSSE frames one event for the wire.
func writeSSE(w io.Writer, e *Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, b)
	return err
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	// Cancel the job's context; a queued job is finished here, a
	// running one stops when (and if) its runner observes the context.
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleSyncStudy delegates through the same pipeline as
// POST /v1/jobs — the study rides a regular job (journaled, deduped,
// streamable via its X-Voltnoise-Job id) and the handler merely waits
// for it.
func (s *Server) handleSyncStudy(w http.ResponseWriter, r *http.Request) {
	j, st, ok := s.acceptSubmission(w, r)
	if !ok {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "request context canceled while study in flight (job %s continues)", st.ID)
		return
	}
	state, result, errText := j.snapshot()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Voltnoise-Cache", cacheHeader(j.cached))
		w.Header().Set("X-Voltnoise-Job", j.id)
		w.Write(result)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errText)
	}
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (s *Server) handleListStudies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"studies": Studies()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Readiness is the /readyz body. Status is "ready", "degraded" (still
// serving — studies recompute around the sick subsystem — but
// persistence is impaired; Reason names the failure), or "draining".
type Readiness struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// readiness snapshots the server's readiness.
func (s *Server) readiness() (Readiness, int) {
	s.mu.Lock()
	draining := s.draining
	journalErr := s.lastJournalErr
	s.mu.Unlock()
	if draining {
		return Readiness{Status: "draining"}, http.StatusServiceUnavailable
	}
	if ok, reason := s.cache.Health(); !ok {
		return Readiness{Status: "degraded", Reason: reason}, http.StatusOK
	}
	if journalErr != "" {
		return Readiness{Status: "degraded", Reason: "journal appends failing: " + journalErr}, http.StatusOK
	}
	return Readiness{Status: "ready"}, http.StatusOK
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rd, code := s.readiness()
	if code != http.StatusOK {
		writeError(w, code, "%s", rd.Status)
		return
	}
	writeJSON(w, code, rd)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.cache.Stats()
	getErrs, putErrs := s.cache.Errors()
	snap := s.met.snapshot(hits, misses, getErrs, putErrs, s.cache.Len(), len(s.queue), cap(s.queue))
	writeJSON(w, http.StatusOK, snap)
}
