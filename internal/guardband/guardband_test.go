package guardband

import (
	"math"
	"testing"

	"voltnoise/internal/core"
)

func monotoneTable() MarginTable {
	return MarginTable{MarginPercent: [core.NumCores + 1]float64{0.5, 2, 3, 4, 5, 6, 7}}
}

func TestMarginTableValidate(t *testing.T) {
	if err := monotoneTable().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := monotoneTable()
	bad.MarginPercent[3] = 1
	if err := bad.Validate(); err == nil {
		t.Error("non-monotone table validated")
	}
	neg := monotoneTable()
	neg.MarginPercent[0] = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative idle margin validated")
	}
}

func TestFromDroops(t *testing.T) {
	droops := [core.NumCores + 1]float64{0.2, 1, 2.5, 2.0, 4, 5, 6.5}
	tab, err := FromDroops(droops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatalf("FromDroops produced invalid table: %v", err)
	}
	// Running maximum smooths the dip at index 3.
	if tab.MarginPercent[3] != 3.5 {
		t.Errorf("margin[3] = %g, want 3.5 (running max 2.5 + safety 1)", tab.MarginPercent[3])
	}
	if tab.MarginPercent[6] != 7.5 {
		t.Errorf("margin[6] = %g", tab.MarginPercent[6])
	}
	if _, err := FromDroops(droops, -1); err == nil {
		t.Error("negative safety accepted")
	}
	droops[2] = -1
	if _, err := FromDroops(droops, 1); err == nil {
		t.Error("negative droop accepted")
	}
}

func TestControllerBias(t *testing.T) {
	c, err := NewController(monotoneTable())
	if err != nil {
		t.Fatal(err)
	}
	// Full utilization: no head-room, bias 1.0.
	b, err := c.SetActiveCores(core.NumCores)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-1.0) > 1e-12 {
		t.Errorf("full-load bias = %g", b)
	}
	// Idle: full head-room (7% - 0.5% = 6.5%).
	b, _ = c.SetActiveCores(0)
	if math.Abs(b-0.935) > 1e-12 {
		t.Errorf("idle bias = %g, want 0.935", b)
	}
	if c.active != 0 {
		t.Errorf("active cores = %d", c.active)
	}
	// Monotone in utilization.
	prev := 0.0
	for n := 0; n <= core.NumCores; n++ {
		b, _ := c.SetActiveCores(n)
		if b < prev {
			t.Errorf("bias not monotone at %d cores: %g < %g", n, b, prev)
		}
		prev = b
	}
	if _, err := c.SetActiveCores(-1); err == nil {
		t.Error("negative core count accepted")
	}
	if _, err := c.SetActiveCores(core.NumCores + 1); err == nil {
		t.Error("overlarge core count accepted")
	}
}

func TestNewControllerRejectsBadTable(t *testing.T) {
	bad := monotoneTable()
	bad.MarginPercent[1] = 0
	if _, err := NewController(bad); err == nil {
		t.Error("bad table accepted")
	}
}

func TestReplaySavings(t *testing.T) {
	c, _ := NewController(monotoneTable())
	trace := []UtilizationPhase{
		{ActiveCores: 6, Duration: 1},
		{ActiveCores: 2, Duration: 2},
		{ActiveCores: 0, Duration: 1},
	}
	s, err := Replay(c, trace)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalTime != 4 {
		t.Errorf("total time = %g", s.TotalTime)
	}
	if s.MeanBias >= 1 || s.MeanBias <= 0.9 {
		t.Errorf("mean bias = %g", s.MeanBias)
	}
	if s.EnergySavedPercent <= 0 || s.EnergySavedPercent >= 20 {
		t.Errorf("energy saved = %g%%", s.EnergySavedPercent)
	}
	// A fully loaded machine saves nothing.
	s2, err := Replay(c, []UtilizationPhase{{ActiveCores: 6, Duration: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2.EnergySavedPercent) > 1e-9 {
		t.Errorf("full-load savings = %g%%", s2.EnergySavedPercent)
	}
	// Lower utilization saves more.
	s3, _ := Replay(c, []UtilizationPhase{{ActiveCores: 1, Duration: 5}})
	if s3.EnergySavedPercent <= s.EnergySavedPercent {
		t.Errorf("low-utilization savings %g%% not above mixed %g%%", s3.EnergySavedPercent, s.EnergySavedPercent)
	}
}

func TestReplayValidation(t *testing.T) {
	c, _ := NewController(monotoneTable())
	if _, err := Replay(c, nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := Replay(c, []UtilizationPhase{{ActiveCores: 2, Duration: 0}}); err == nil {
		t.Error("zero-duration phase accepted")
	}
	if _, err := Replay(c, []UtilizationPhase{{ActiveCores: 9, Duration: 1}}); err == nil {
		t.Error("bad utilization accepted")
	}
}
