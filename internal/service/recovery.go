package service

import (
	"encoding/json"
	"strconv"
	"strings"

	"voltnoise/internal/service/journal"
)

// recover rebuilds state from the journal's still-pending jobs before
// the worker pool starts. Each pending job keeps its original ID. A
// job whose result already sits in the durable store (the crash hit
// between the store write and the journal's "done" record, or a
// different job computed the same hash) completes immediately from
// those bytes; everything else re-enters the queue. A request that no
// longer normalizes (e.g. the journal predates a schema change) is
// journaled failed and surfaced as a failed job rather than silently
// dropped. Runs before the pool starts, so the plain map/queue writes
// are safe.
func (s *Server) recover(pending []journal.Pending) {
	for _, p := range pending {
		// Keep new IDs past every replayed one.
		if n, ok := parseJobSeq(p.ID); ok && n > s.seq {
			s.seq = n
		}
	}
	for _, p := range pending {
		s.met.jobRecovered()
		req, err := decodeJournaledRequest(p.Req)
		if err != nil {
			req = &Request{}
		}
		j := newJob(p.ID, p.Hash, req, s.cfg.EventBuffer)
		j.recovered = true
		if err != nil {
			s.arriveFinished(j, StateFailed, nil, err)
		} else if bytes, ok := s.cache.Get(p.Hash); ok {
			s.arriveFinished(j, StateDone, bytes, nil)
		} else {
			s.enqueue(j) // never full: the queue was sized to fit pending
		}
	}
}

// decodeJournaledRequest revives the raw accepted request and
// re-normalizes it (the journal stores what the client sent, the
// runner wants the canonical form).
func decodeJournaledRequest(raw json.RawMessage) (*Request, error) {
	var req Request
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, err
	}
	return req.Normalize()
}

// parseJobSeq extracts the numeric suffix of a "j-000123" job ID.
func parseJobSeq(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "j-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
