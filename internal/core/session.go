package core

import (
	"context"
	"sync"

	"voltnoise/internal/pdn"
)

// Session is the width-1 view of BatchSession: one measurement at a
// time, for callers that run a single spec per call. It holds no engine
// state of its own.
//
// A Session is NOT safe for concurrent use.
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

// Config returns the session's platform configuration.
func (s *Session) Config() Config { return s.bs.cfg }

// VoltageBias returns the current (quantized) bias.
func (s *Session) VoltageBias() float64 { return s.bs.LaneBias(0) }

// SetVoltageBias retunes the supply setpoint (see
// BatchSession.SetLaneBias).
func (s *Session) SetVoltageBias(bias float64) error { return s.bs.SetVoltageBias(bias) }

// CoreGains returns the effective per-core skitter gain multipliers.
func (s *Session) CoreGains() [NumCores]float64 { return s.bs.LaneGains(0) }

// SetCoreGains overrides the per-core skitter gain multipliers (see
// BatchSession.SetLaneGains).
func (s *Session) SetCoreGains(gains [NumCores]float64) error { return s.bs.SetLaneGains(0, gains) }

// Run executes one measurement window on the session.
func (s *Session) Run(spec RunSpec) (*Measurement, error) {
	return s.RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: a canceled context interrupts
// the integration mid-window and returns ctx.Err(). The session
// remains reusable afterwards.
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
// one when available.
func (sp *SessionPool) Get(bias float64) (*Session, error) {
	bs, err := sp.GetBatch(bias, 1)
	if err != nil {
		return nil, err
	}
	return &Session{bs: bs}, nil
}

// Put returns a session to the pool. The session must not be used
// after Put.
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

// AutoBatchWidth returns the lane width studies use when their batch
// knob asks for auto: pdn.AutoBatchLanes, the same for every pool.
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
