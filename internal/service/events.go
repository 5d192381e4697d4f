package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"

	"voltnoise/internal/population"
)

// Event types of the job stream (the "event:" field of the SSE frame).
const (
	// EventHello opens every stream: it echoes the normalized request
	// and the job's state at publish time. It is always seq 1, so a
	// client that replays from the beginning always knows the study
	// configuration it is assembling for.
	EventHello = "hello"
	// EventStatus reports a lifecycle transition (queued → running).
	EventStatus = "status"
	// EventPartial carries one study partial result from the ordered
	// reduction: a FreqSweepPartial, VminStepPartial,
	// EPIProfilePartial or PopulationPartial in Partial.
	EventPartial = "partial"
	// EventDone, EventFailed and EventCanceled terminate the stream;
	// no event follows them.
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// Event is one entry of a job's event stream (GET
// /v1/jobs/{id}/events). Seq is assigned by the per-job hub, starts at
// 1 and increases by exactly 1 per event, so a client can resume after
// a disconnect by sending the last seq it saw as Last-Event-ID.
//
// The stream is deterministic where the studies are: partial events
// fire from the ordered-reduction side of the scheduler, so their
// order and payloads are identical at every (workers, batch) setting
// with the same batch width (the chunking — and hence the event count —
// changes with Batch, the assembled result never does).
type Event struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`
	// Study and State describe the job at publish time.
	Study Study `json:"study,omitempty"`
	State State `json:"state,omitempty"`
	// Request echoes the normalized request; hello events only.
	Request *Request `json:"request,omitempty"`
	// Chunk is the ordered-reduction chunk index; ChunksDone/Total
	// count reduced chunks. Partial events only.
	Chunk       int `json:"chunk,omitempty"`
	ChunksDone  int `json:"chunks_done,omitempty"`
	ChunksTotal int `json:"chunks_total,omitempty"`
	// Partial is the study-typed partial payload. Partial events only.
	Partial json.RawMessage `json:"partial,omitempty"`
	// ResultHash and ResultBytes fingerprint the final result blob
	// (hex SHA-256 and length of the GET /v1/jobs/{id}/result body),
	// letting a client verify a stream-assembled result byte for byte.
	// Done events only.
	ResultHash  string `json:"result_hash,omitempty"`
	ResultBytes int    `json:"result_bytes,omitempty"`
	// Error carries the failure text. Failed/canceled events only.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the event ends its stream.
func (e *Event) Terminal() bool {
	return e.Type == EventDone || e.Type == EventFailed || e.Type == EventCanceled
}

// resultSum is the result fingerprint carried by done events: the hex
// SHA-256 of the result bytes.
func resultSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// --- Partial payloads -------------------------------------------------
//
// One wire type per streaming study. Each partial carries the raw
// values the final reduction consumes: finished sweep points, bias
// steps, measured instructions, chip summaries. AssembleResult
// collects them and calls the same library fold and wire converter
// the runner calls, so a client that collects every partial can
// reassemble the final blob byte for byte. The guardband study streams
// lifecycle events only: its result is one indivisible table.

// IndexedFreqPoint ties a sweep partial point to its position in the
// final Points slice. Chunks arrive in sweep order, but a chunk's
// first index depends on the batch width, so each point carries its
// sweep index.
type IndexedFreqPoint struct {
	Index int            `json:"index"`
	Point FreqSweepPoint `json:"point"`
}

// FreqSweepPartial is the partial payload of a freq_sweep job: the
// sweep points one reduced measurement chunk produced.
type FreqSweepPartial struct {
	Points []IndexedFreqPoint `json:"points"`
}

// VminStepPartial is the partial payload of a vmin_walk job: one
// reduced bias step, in descending-bias order. The failing step (if
// any) is the last one streamed.
type VminStepPartial struct {
	// Step counts reduced steps (1-based).
	Step int `json:"step"`
	// Bias is the quantized bias the step applied.
	Bias float64 `json:"bias"`
	// MinV is the deepest supply excursion the step observed.
	MinV float64 `json:"min_v"`
}

// EPIPartialEntry is one profiled instruction of an epi_profile
// partial. It has no rank or relative power — both exist only once the
// whole profile has reduced.
type EPIPartialEntry struct {
	Mnemonic   string  `json:"mnemonic"`
	Unit       string  `json:"unit"`
	PowerWatts float64 `json:"power_watts"`
	IPC        float64 `json:"ipc"`
}

// EPIProfilePartial is the partial payload of an epi_profile job: the
// entries of one reduced instruction chunk, covering table positions
// [Start, End).
type EPIProfilePartial struct {
	Start   int               `json:"start"`
	End     int               `json:"end"`
	Entries []EPIPartialEntry `json:"entries"`
}

// PopulationPartial is the partial payload of a population job: the
// per-chip summaries of one reduced chip batch.
type PopulationPartial struct {
	Chips []population.ChipSummary `json:"chips"`
}

// --- Event hub --------------------------------------------------------

// defaultEventBuffer is the per-job retained-event window when
// Config.EventBuffer is zero.
const defaultEventBuffer = 1024

// eventHub is a per-job event ring: it assigns monotonic sequence
// numbers, retains the newest cap events for replay, and wakes
// subscribers on publish. A subscriber asking for events older than
// the retained window gets trimmed=true — the HTTP layer turns that
// into the documented 410 Gone with the full-result fallback.
type eventHub struct {
	mu     sync.Mutex
	cap    int
	events []*Event // dense window: events[i].Seq == first+int64(i)
	first  int64    // seq of events[0]
	next   int64    // next seq to assign (seqs start at 1)
	closed bool     // set by the terminal publish; no event follows
	subs   map[chan struct{}]struct{}
}

func newEventHub(capacity int) *eventHub {
	if capacity <= 0 {
		capacity = defaultEventBuffer
	}
	return &eventHub{
		cap:   capacity,
		first: 1,
		next:  1,
		subs:  make(map[chan struct{}]struct{}),
	}
}

// publish assigns the event's seq, appends it, trims the window to the
// ring capacity and wakes subscribers. A terminal event closes the hub.
// Returns how many retained events the append trimmed (0 or 1).
func (h *eventHub) publish(e *Event) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	e.Seq = h.next
	h.next++
	h.events = append(h.events, e)
	trimmed := 0
	if len(h.events) > h.cap {
		trimmed = len(h.events) - h.cap
		keep := make([]*Event, h.cap)
		copy(keep, h.events[trimmed:])
		h.events = keep
		h.first += int64(trimmed)
	}
	if e.Terminal() {
		h.closed = true
	}
	for ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	return trimmed
}

// since returns copies of the retained events with Seq > after.
// trimmed reports that events the caller has not seen were dropped
// from the window (resume impossible); closed that no further event
// will ever be published.
func (h *eventHub) since(after int64) (evs []*Event, trimmed, closed bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after < h.first-1 {
		return nil, true, h.closed
	}
	if idx := int(after - h.first + 1); idx < len(h.events) {
		evs = append([]*Event(nil), h.events[idx:]...)
	}
	return evs, false, h.closed
}

// subscribe registers a wake-up channel (buffered, coalescing) and
// returns it with its cancel function.
func (h *eventHub) subscribe() (ch chan struct{}, cancel func()) {
	ch = make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}
