package core

import (
	"context"
	"sync"

	"voltnoise/internal/pdn"
)

// Session is a width-1 BatchSession behind the single-spec call. It is
// kept only for the per-layer replays of bench/layers.go; library code
// runs specs on a BatchSession.
type Session struct {
	bs *BatchSession
}

// NewSession builds a session at nominal voltage (bias 1.0).
func NewSession(cfg Config) (*Session, error) {
	bs, err := NewBatchSession(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &Session{bs: bs}, nil
}

// RunContext executes one measurement window on the session (see
// BatchSession.RunBatchContext).
func (s *Session) RunContext(ctx context.Context, spec RunSpec) (*Measurement, error) {
	var out [1]*Measurement
	if err := s.bs.run(ctx, []RunSpec{spec}, out[:]); err != nil {
		return nil, err
	}
	return out[0], nil
}

// SessionPool recycles batch sessions for one platform configuration,
// keyed by lane width, so a study that packs its runs into width-B
// batches pays each width's setup cost once. It is safe for concurrent
// use; parallel studies get a session per in-flight batch and put it
// back when done.
type SessionPool struct {
	cfg Config

	mu   sync.Mutex
	free map[int][]*BatchSession // free sessions by lane width
}

// NewSessionPool returns an empty pool for the configuration.
func NewSessionPool(cfg Config) *SessionPool {
	return &SessionPool{cfg: cfg}
}

// Get returns a width-1 session at the given bias, reusing a pooled
// one when available. Its only caller is bench/layers.go; library code
// calls GetBatch.
func (sp *SessionPool) Get(bias float64) (*Session, error) {
	bs, err := sp.GetBatch(bias, 1)
	if err != nil {
		return nil, err
	}
	return &Session{bs: bs}, nil
}

// Put returns a session from Get to the pool. The session must not be
// used after Put. Its only caller is bench/layers.go.
func (sp *SessionPool) Put(s *Session) {
	if s != nil {
		sp.PutBatch(s.bs)
	}
}

// GetBatch returns a lockstep batch session of the given lane width
// with every lane retuned to the given bias, reusing a pooled session
// of the same width when available. Callers that need per-lane biases
// follow up with SetLaneBias.
func (sp *SessionPool) GetBatch(bias float64, lanes int) (*BatchSession, error) {
	sp.mu.Lock()
	var s *BatchSession
	if free := sp.free[lanes]; len(free) > 0 {
		s = free[len(free)-1]
		sp.free[lanes] = free[:len(free)-1]
	}
	sp.mu.Unlock()
	if s == nil {
		var err error
		if s, err = NewBatchSession(sp.cfg, lanes); err != nil {
			return nil, err
		}
	}
	// A previous borrower may have overridden lane gains; restore the
	// configuration's gains so reuse starts from a known state (free for
	// untouched lanes).
	for l := 0; l < lanes; l++ {
		if err := s.SetLaneGains(l, sp.cfg.CoreGain); err != nil {
			return nil, err
		}
	}
	if err := s.SetVoltageBias(bias); err != nil {
		return nil, err
	}
	return s, nil
}

// AutoBatchWidth returns pdn.AutoBatchLanes, the lane width studies
// use when their batch knob asks for auto. Its only callers are in
// bench/; library code calls pdn.AutoBatchLanes.
func (sp *SessionPool) AutoBatchWidth() int { return pdn.AutoBatchLanes() }

// PutBatch returns a batch session to the pool. The session must not
// be used after PutBatch.
func (sp *SessionPool) PutBatch(s *BatchSession) {
	if s == nil {
		return
	}
	sp.mu.Lock()
	if sp.free == nil {
		sp.free = make(map[int][]*BatchSession)
	}
	sp.free[len(s.lanes)] = append(sp.free[len(s.lanes)], s)
	sp.mu.Unlock()
}
