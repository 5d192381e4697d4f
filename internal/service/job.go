package service

import (
	"context"
	"fmt"
	"sync"
)

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the study.
	StateRunning State = "running"
	// StateDone: finished successfully; the result is available.
	StateDone State = "done"
	// StateFailed: the study returned an error.
	StateFailed State = "failed"
	// StateCanceled: canceled by DELETE /v1/jobs/{id}, in the queue or
	// while running.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire representation of a job (GET /v1/jobs/{id}
// and the POST /v1/jobs response).
type JobStatus struct {
	ID     string `json:"id"`
	Study  Study  `json:"study"`
	Hash   string `json:"hash"`
	Status State  `json:"status"`
	// Cached marks a submission answered entirely from the result
	// cache (the job never entered the queue).
	Cached bool `json:"cached,omitempty"`
	// Deduped marks a submission collapsed onto an existing identical
	// in-flight job; ID names that job.
	Deduped bool `json:"deduped,omitempty"`
	// Recovered marks a job replayed from the write-ahead journal
	// after a restart rather than submitted on this incarnation.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	// EventsEmitted counts the stream events published for this job so
	// far (GET /v1/jobs/{id}/events replays the retained window of
	// them). ChunksDone/ChunksTotal track the study's ordered
	// reduction: how many measurement chunks have reduced out of how
	// many the schedule cut. Zero until the study emits its first
	// partial.
	EventsEmitted int64 `json:"events_emitted,omitempty"`
	ChunksDone    int   `json:"chunks_done,omitempty"`
	ChunksTotal   int   `json:"chunks_total,omitempty"`
}

// job is the server-side job record.
type job struct {
	id   string
	hash string
	req  *Request // normalized

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	result []byte // marshaled study payload, set when state == StateDone
	err    string

	// hub is the job's event stream.
	hub *eventHub
	// progress counters mirrored into JobStatus; guarded by mu.
	eventsEmitted           int64
	chunksDone, chunksTotal int

	// done closes once the job's terminal state is fully recorded: its
	// terminal event, journal record and metrics.
	done chan struct{}
	// cached marks a job satisfied from the cache at submission.
	cached bool
	// recovered marks a job replayed from the journal at startup.
	recovered bool
}

func newJob(id, hash string, req *Request, eventBuffer int) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:     id,
		hash:   hash,
		req:    req,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		hub:    newEventHub(eventBuffer),
		done:   make(chan struct{}),
	}
}

// move changes the job's state from from to to, recording the result
// and error text, and reports whether it did: a job that has already
// left from is left alone.
func (j *job) move(from, to State, result []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = to
	j.result = result
	if err != nil {
		j.err = err.Error()
	}
	return true
}

// terminalEvent builds the event that ends the job's stream. Its type
// is the terminal state's name; a done event fingerprints the result,
// a failed or canceled one carries the error text.
func (j *job) terminalEvent() *Event {
	state, result, errText := j.snapshot()
	e := &Event{Type: string(state), State: state, Error: errText}
	if state == StateDone {
		e.ResultHash, e.ResultBytes = resultSum(result), len(result)
	}
	return e
}

// status snapshots the job for the wire.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatus{
		ID:            j.id,
		Study:         j.req.Study,
		Hash:          j.hash,
		Status:        j.state,
		Cached:        j.cached,
		Recovered:     j.recovered,
		Error:         j.err,
		EventsEmitted: j.eventsEmitted,
		ChunksDone:    j.chunksDone,
		ChunksTotal:   j.chunksTotal,
	}
}

// noteEvent records a published stream event in the job's progress
// counters.
func (j *job) noteEvent(e *Event) {
	j.mu.Lock()
	j.eventsEmitted++
	if e.ChunksTotal > 0 {
		j.chunksDone, j.chunksTotal = e.ChunksDone, e.ChunksTotal
	}
	j.mu.Unlock()
}

// snapshot returns the terminal state, result bytes and error text.
func (j *job) snapshot() (State, []byte, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

// jobID renders sequential job identifiers ("j-000001").
func jobID(seq int64) string { return fmt.Sprintf("j-%06d", seq) }
