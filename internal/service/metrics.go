package service

import (
	"sort"
	"sync"
	"time"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of
// the per-study latency histogram; observations beyond the last bound
// land in the +Inf bucket.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket latency histogram snapshot.
type Histogram struct {
	// BucketsMS are the bucket upper bounds in milliseconds; Counts has
	// one extra trailing entry for observations beyond the last bound.
	BucketsMS []float64 `json:"buckets_ms"`
	Counts    []int64   `json:"counts"`
	Count     int64     `json:"count"`
	SumMS     float64   `json:"sum_ms"`
}

// StudyStats is the per-study slice of a metrics snapshot.
type StudyStats struct {
	Done    int64     `json:"done"`
	Failed  int64     `json:"failed"`
	Latency Histogram `json:"latency"`
}

// MetricsSnapshot is the JSON body of GET /metrics.
type MetricsSnapshot struct {
	JobsQueued   int64 `json:"jobs_queued"`
	JobsRunning  int64 `json:"jobs_running"`
	JobsDone     int64 `json:"jobs_done"`
	JobsFailed   int64 `json:"jobs_failed"`
	JobsCanceled int64 `json:"jobs_canceled"`
	// JobsDeduped counts submissions collapsed onto an identical
	// in-flight job (singleflight).
	JobsDeduped int64 `json:"jobs_deduped"`
	// JobsRejected counts submissions bounced with 429 (queue full).
	JobsRejected int64 `json:"jobs_rejected"`
	// JobsRecovered counts jobs replayed from the write-ahead journal
	// at startup and re-enqueued (or completed straight from the
	// durable store).
	JobsRecovered int64 `json:"jobs_recovered"`

	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	// StoreGetErrors / StorePutErrors count result-store backend
	// failures. Each one degraded to a recompute (Get) or an uncached
	// result (Put) — never to a failed study.
	StoreGetErrors int64 `json:"store_get_errors"`
	StorePutErrors int64 `json:"store_put_errors"`
	// JournalErrors counts write-ahead journal append failures. The
	// affected jobs still ran; they just lost crash protection.
	JournalErrors int64 `json:"journal_errors"`

	// EventsEmitted counts job-stream events published across all jobs;
	// EventsTrimmed counts events that aged out of per-job retained
	// windows (a resume from before a trimmed event gets 410 Gone).
	EventsEmitted int64 `json:"events_emitted"`
	EventsTrimmed int64 `json:"events_trimmed"`
	// StreamsOpened counts GET /v1/jobs/{id}/events connections served;
	// StreamsResumed the subset that presented a Last-Event-ID cursor;
	// StreamsGone the 410 responses (resume past the retained window).
	StreamsOpened  int64 `json:"streams_opened"`
	StreamsResumed int64 `json:"streams_resumed"`
	StreamsGone    int64 `json:"streams_gone"`

	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`

	Studies map[string]StudyStats `json:"studies"`
}

// metrics is the live counter set behind /metrics.
type metrics struct {
	mu sync.Mutex
	// jobs counts jobs by state: a gauge for queued and running, a
	// running total for each terminal state.
	jobs      map[State]int64
	deduped   int64
	rejected  int64
	recovered int64
	journal   int64
	// journalErr is the last journal append failure, cleared by the
	// next successful append; /readyz reports it.
	journalErr string

	events         int64
	eventsTrimmed  int64
	streamsOpened  int64
	streamsResumed int64
	streamsGone    int64

	studies map[Study]*studyCounters
}

type studyCounters struct {
	done, failed int64
	counts       []int64
	count        int64
	sumMS        float64
}

func newMetrics() *metrics {
	return &metrics{jobs: make(map[State]int64), studies: make(map[Study]*studyCounters)}
}

func (m *metrics) study(s Study) *studyCounters {
	sc := m.studies[s]
	if sc == nil {
		sc = &studyCounters{counts: make([]int64, len(latencyBucketsMS)+1)}
		m.studies[s] = sc
	}
	return sc
}

func (m *metrics) jobRejected()  { m.mu.Lock(); m.rejected++; m.mu.Unlock() }
func (m *metrics) jobDeduped()   { m.mu.Lock(); m.deduped++; m.mu.Unlock() }
func (m *metrics) jobRecovered() { m.mu.Lock(); m.recovered++; m.mu.Unlock() }
func (m *metrics) streamGone()   { m.mu.Lock(); m.streamsGone++; m.mu.Unlock() }

// journalAppended records the outcome of one journal append.
func (m *metrics) journalAppended(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.journal++
		m.journalErr = err.Error()
		return
	}
	m.journalErr = ""
}

// lastJournalError returns the failure text of the last journal
// append, or "" when it succeeded.
func (m *metrics) lastJournalError() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journalErr
}

// eventPublished records one published stream event and how many
// retained events its append trimmed from the ring.
func (m *metrics) eventPublished(trimmed int) {
	m.mu.Lock()
	m.events++
	m.eventsTrimmed += int64(trimmed)
	m.mu.Unlock()
}

func (m *metrics) streamOpened(resumed bool) {
	m.mu.Lock()
	m.streamsOpened++
	if resumed {
		m.streamsResumed++
	}
	m.mu.Unlock()
}

// transition records a job moving from state from to state to; from
// is "" for a job entering the queue. Only runs feed the done and
// failed counters and the study's latency histogram: a job leaves
// StateRunning done or failed, and elapsed is its run time.
func (m *metrics) transition(s Study, from, to State, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if from != "" {
		m.jobs[from]--
	}
	m.jobs[to]++
	if to != StateDone && to != StateFailed {
		return
	}
	sc := m.study(s)
	if to == StateDone {
		sc.done++
	} else {
		sc.failed++
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	i := sort.SearchFloat64s(latencyBucketsMS, ms)
	sc.counts[i]++
	sc.count++
	sc.sumMS += ms
}

// snapshot renders the counters; cache and queue gauges come from the
// caller (they live in their own structures).
func (m *metrics) snapshot(hits, misses, getErrs, putErrs int64, cacheEntries, queueDepth, queueCap int) *MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := &MetricsSnapshot{
		JobsQueued:     m.jobs[StateQueued],
		JobsRunning:    m.jobs[StateRunning],
		JobsDone:       m.jobs[StateDone],
		JobsFailed:     m.jobs[StateFailed],
		JobsCanceled:   m.jobs[StateCanceled],
		JobsDeduped:    m.deduped,
		JobsRejected:   m.rejected,
		JobsRecovered:  m.recovered,
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEntries:   cacheEntries,
		StoreGetErrors: getErrs,
		StorePutErrors: putErrs,
		JournalErrors:  m.journal,
		EventsEmitted:  m.events,
		EventsTrimmed:  m.eventsTrimmed,
		StreamsOpened:  m.streamsOpened,
		StreamsResumed: m.streamsResumed,
		StreamsGone:    m.streamsGone,
		QueueDepth:     queueDepth,
		QueueCapacity:  queueCap,
		Studies:        make(map[string]StudyStats, len(m.studies)),
	}
	for s, sc := range m.studies {
		snap.Studies[string(s)] = StudyStats{
			Done:   sc.done,
			Failed: sc.failed,
			Latency: Histogram{
				BucketsMS: latencyBucketsMS,
				Counts:    append([]int64(nil), sc.counts...),
				Count:     sc.count,
				SumMS:     sc.sumMS,
			},
		}
	}
	return snap
}
