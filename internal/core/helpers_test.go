package core

import (
	"context"
	"testing"

	"voltnoise/internal/isa"
)

// testBody returns a small saturating loop body for workload tests.
func testBody(t *testing.T) []*isa.Instruction {
	t.Helper()
	tab := isa.ZEC12Table()
	return []*isa.Instruction{
		tab.MustLookup("CHHSI"),
		tab.MustLookup("CHHSI"),
		tab.MustLookup("CIB"),
	}
}

// runAlone runs spec by itself on a fresh width-1 batch session at the
// given bias and gains: the reference every lane of a wider batch and
// every reused session must match.
func runAlone(t *testing.T, cfg Config, bias float64, gains [NumCores]float64, spec RunSpec) *Measurement {
	t.Helper()
	s, err := NewBatchSession(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetVoltageBias(bias); err != nil {
		t.Fatal(err)
	}
	if err := s.SetLaneGains(0, gains); err != nil {
		t.Fatal(err)
	}
	return runOne(t, s, spec)
}

// runOne runs spec on the width-1 batch session s.
func runOne(t *testing.T, s *BatchSession, spec RunSpec) *Measurement {
	t.Helper()
	ms, err := s.RunBatchContext(context.Background(), []RunSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return ms[0]
}
