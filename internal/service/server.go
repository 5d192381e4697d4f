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

	mu       sync.Mutex
	jobs     map[string]*job
	inflight map[string]*job // canonical hash -> queued/running job
	seq      int64
	draining bool

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

// submit accepts a request: it normalizes and validates, consults the
// result cache, collapses onto an identical in-flight job when one
// exists (singleflight), or enqueues a new job. The returned status
// reports which path was taken. Errors: validation errors,
// ErrQueueFull, ErrDraining.
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
		j := newJob(jobID(s.seq), hash, n, s.cfg.EventBuffer)
		s.arriveFinished(j, StateDone, bytes, nil)
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
	j := newJob(jobID(s.seq), hash, n, s.cfg.EventBuffer)
	if err := s.enqueue(j); err != nil {
		s.met.jobRejected()
		return nil, nil, err
	}
	// Write-ahead: the accepted job hits the journal before the caller
	// hears "accepted", so a crash after this point re-enqueues it on
	// the next start. A journal failure is availability-over-
	// durability: the job still runs, the degradation is visible in
	// /metrics and /readyz.
	s.journalAccept(j)
	return j, j.status(), nil
}

// The job lifecycle: a job enters through enqueue or arriveFinished, a
// worker moves it to running in runJob, and it reaches a terminal
// state only through end. Each path keeps the job record, its event
// stream, the journal and /metrics in step.

// enqueue puts a new job (a submission, or a recovered job that still
// has to run) on the queue, or returns ErrQueueFull, and registers it:
// the job record, the in-flight entry (unless an identical job holds
// it), the queued gauge and the hello. The caller holds s.mu or runs
// before the pool starts; a worker takes s.mu (parkForRecovery) before
// it runs a popped job, so it finds the job registered.
func (s *Server) enqueue(j *job) error {
	select {
	case s.queue <- j:
	default:
		return ErrQueueFull
	}
	s.jobs[j.id] = j
	if _, dup := s.inflight[j.hash]; !dup {
		s.inflight[j.hash] = j
	}
	s.met.transition(j.req.Study, "", StateQueued, 0)
	s.publishEvent(j, &Event{Type: EventHello, State: StateQueued, Request: j.req})
	return nil
}

// arriveFinished registers a job that is finished on arrival: a store
// hit at submit, or a recovered job whose result is already stored or
// whose request can no longer be decoded. Its stream is the hello in
// the final state, then the terminal event. Only a recovered job is
// journaled, to close its acceptance record; a store hit at submit has
// none, so this never appends to the journal under s.mu. Arrivals are
// not runs, so /metrics counts none of them as done or failed.
func (s *Server) arriveFinished(j *job, state State, result []byte, err error) {
	j.cached = state == StateDone
	j.move(StateQueued, state, result, err)
	s.publishEvent(j, &Event{Type: EventHello, State: state, Request: j.req})
	s.publishEvent(j, j.terminalEvent())
	if j.recovered {
		s.journalFinish(j.id, state)
	}
	close(j.done)
	s.jobs[j.id] = j
}

// end moves a job from from (queued or running) to a terminal state:
// it records the outcome on the job, publishes the terminal event,
// journals the move, drops the in-flight entry and updates /metrics
// (elapsed is the run time), and only then releases the waiters on
// done. It does nothing if the job has already left from, so a job
// ends exactly once whoever gets there first.
func (s *Server) end(j *job, from, to State, result []byte, err error, elapsed time.Duration) {
	if !j.move(from, to, result, err) {
		return
	}
	s.publishEvent(j, j.terminalEvent())
	s.journalFinish(j.id, to)
	s.mu.Lock()
	if s.inflight[j.hash] == j {
		delete(s.inflight, j.hash)
	}
	s.mu.Unlock()
	s.met.transition(j.req.Study, from, to, elapsed)
	close(j.done)
}

// publishEvent stamps the event with the job's identity, publishes it
// on the job's hub and maintains the job/metrics counters. Safe with
// or without s.mu held (it takes only the hub's and job's own locks).
func (s *Server) publishEvent(j *job, e *Event) {
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
	s.met.journalAppended(err)
}

// journalFinish appends a terminal transition. It takes no server
// lock, so it is safe with or without s.mu held.
func (s *Server) journalFinish(id string, state State) {
	if s.journal == nil {
		return
	}
	s.met.journalAppended(s.journal.Finish(id, string(state)))
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

// runJob runs a job the worker popped. A job that DELETE already ended
// in the queue is skipped. One canceled between its pop and its start
// still moves to running and ends canceled through the running path.
func (s *Server) runJob(j *job) {
	if !j.move(StateQueued, StateRunning, nil, nil) {
		return
	}
	s.met.transition(j.req.Study, StateQueued, StateRunning, 0)
	s.publishEvent(j, &Event{Type: EventStatus, State: StateRunning})
	start := time.Now()
	result, err := s.run(j)
	elapsed := time.Since(start)
	to := StateDone
	switch {
	case err == nil:
		// Persist before journaling "done": a crash between the two
		// replays the job (wasted work, same bytes) instead of
		// journaling a result that was never stored.
		s.cache.Put(j.hash, result)
	case errors.Is(err, context.Canceled):
		to = StateCanceled
	default:
		to = StateFailed
	}
	s.end(j, StateRunning, to, result, err, elapsed)
}

// run executes the job's study and marshals its payload. A panic in
// the runner becomes the job's error, carrying the panic value the way
// exec.PanicError does for a chunk, so no accepted request can take a
// worker, and with it the daemon, down.
func (s *Server) run(j *job) (result []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			result, err = nil, fmt.Errorf("service: %s study panicked: %v", j.req.Study, v)
		}
	}()
	if err := j.ctx.Err(); err != nil {
		return nil, err // canceled before it started
	}
	// The progress sink rides the job context so the Runner interface
	// stays payload-agnostic; the lab runner converts study partials to
	// wire payloads before they reach the sink.
	payload, err := s.runner.Run(progress.NewContext(j.ctx, s.progressSink(j)), j.req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}

// pathJob returns the job named by the request path's {id}, or nil
// after answering 404 itself.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
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
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
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
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	writeResult(w, j, false)
}

// writeResult answers with the job's outcome: the result bytes of a
// done job under its X-Voltnoise-Cache header, 500 with the error of a
// failed one, 410 for a canceled one, and 202 with the status body for
// a job still in flight, so pollers can reuse the response. named adds
// the job's ID to a done response as X-Voltnoise-Job, for callers that
// never saw the ID.
func writeResult(w http.ResponseWriter, j *job, named bool) {
	state, result, errText := j.snapshot()
	switch state {
	case StateDone:
		cache := "miss"
		if j.cached {
			cache = "hit"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Voltnoise-Cache", cache)
		if named {
			w.Header().Set("X-Voltnoise-Job", j.id)
		}
		w.Write(result)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errText)
	case StateCanceled:
		writeError(w, http.StatusGone, "job canceled")
	default:
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
	j := s.pathJob(w, r)
	if j == nil {
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
	j := s.pathJob(w, r)
	if j == nil {
		return
	}
	// Cancel the job's context: a running job stops when (and if) its
	// runner observes it. A queued job ends here, at once; the worker
	// that later pops it skips it.
	j.cancel()
	s.end(j, StateQueued, StateCanceled, nil, context.Canceled, 0)
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
	writeResult(w, j, true)
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
	s.mu.Unlock()
	journalErr := s.met.lastJournalError()
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
