package core

import (
	"math"
	"testing"

	"voltnoise/internal/signal"
	"voltnoise/internal/uarch"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(Config) Config{
		"bad core":       func(c Config) Config { c.Core.DispatchWidth = 0; return c },
		"bad skitter":    func(c Config) Config { c.Skitter.Taps = 0; return c },
		"neg uncore":     func(c Config) Config { c.UncorePower = -1; return c },
		"zero dt":        func(c Config) Config { c.Dt = 0; return c },
		"zero core gain": func(c Config) Config { c.CoreGain[3] = 0; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if _, err := New(func() Config { c := DefaultConfig(); c.Dt = 0; return c }()); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestVoltageBiasQuantization(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.VoltageBias() != 1.0 {
		t.Errorf("initial bias = %g", p.VoltageBias())
	}
	if err := p.SetVoltageBias(0.9731); err != nil {
		t.Fatal(err)
	}
	if got := p.VoltageBias(); math.Abs(got-0.975) > 1e-12 {
		t.Errorf("bias quantized to %g, want 0.975", got)
	}
	if err := p.SetVoltageBias(0.5); err == nil {
		t.Error("bias 0.5 accepted")
	}
	if err := p.SetVoltageBias(1.5); err == nil {
		t.Error("bias 1.5 accepted")
	}
	p.SetVoltageBias(0.95)
	wantV := DefaultConfig().PDN.Vnom * 0.95
	if got := p.NominalVoltage(); math.Abs(got-wantV) > 1e-12 {
		t.Errorf("NominalVoltage = %g, want %g", got, wantV)
	}
}

func TestRunValidation(t *testing.T) {
	p, _ := New(DefaultConfig())
	if _, err := p.Run(RunSpec{Duration: 0}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := p.Run(RunSpec{Duration: 1e-6, Warmup: -1}); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestIdlePlatformIsQuiet(t *testing.T) {
	p, _ := New(DefaultConfig())
	m, err := p.Run(RunSpec{Duration: 20e-6})
	if err != nil {
		t.Fatal(err)
	}
	worst, _ := m.WorstP2P()
	// An idle platform reads only the skitter jitter floor (~1 tap).
	cfg := p.Config().Skitter
	floor := 2 * cfg.Jitter / float64(cfg.NominalPosition()) * 100
	if worst > floor+1e-9 {
		t.Errorf("idle platform reads %g %%p2p, want <= jitter floor %g", worst, floor)
	}
	// Core voltages below the nominal setpoint (IR drop) but well
	// above the failure region.
	for i, v := range m.VMin {
		if v >= p.NominalVoltage() || v < p.NominalVoltage()*0.95 {
			t.Errorf("core %d idle voltage %g outside expected band", i, v)
		}
	}
	if m.ChipPowerMilliwatts <= 0 {
		t.Error("no chip power reported")
	}
}

func TestSymmetricWorkloadsReadSymmetrically(t *testing.T) {
	cfg := DefaultConfig()
	// Disable process variation to expose electrical symmetry.
	for i := range cfg.CoreGain {
		cfg.CoreGain[i] = 1
	}
	p, _ := New(cfg)
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = Steady("load", 30)
	}
	m, err := p.Run(RunSpec{Workloads: wl, Duration: 20e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < NumCores; i++ {
		if math.Abs(m.VMin[i]-m.VMin[0]) > 1e-9 {
			t.Errorf("core %d VMin %g != core 0 %g", i, m.VMin[i], m.VMin[0])
		}
	}
}

func TestOscillatingWorkloadProducesNoise(t *testing.T) {
	p, _ := New(DefaultConfig())
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = FuncWorkload{Label: "osc", Fn: func(t float64) float64 {
			if math.Mod(t, 0.5e-6) < 0.25e-6 {
				return 50
			}
			return 16
		}}
	}
	m, err := p.Run(RunSpec{Workloads: wl, Duration: 40e-6, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	worst, _ := m.WorstP2P()
	if worst < 10 {
		t.Errorf("aligned 2MHz oscillation reads only %g %%p2p", worst)
	}
	if m.Traces[0] == nil || m.Traces[0].Len() < 100 {
		t.Error("Record did not keep traces")
	}
	if m.MinVoltage() >= p.NominalVoltage() {
		t.Error("no droop recorded")
	}
	// Trace extremes must agree with VMin/VMax bookkeeping.
	if math.Abs(m.Traces[0].Min()-m.VMin[0]) > 1e-9 {
		t.Errorf("trace min %g != VMin %g", m.Traces[0].Min(), m.VMin[0])
	}
}

func TestLowerBiasLowersVoltages(t *testing.T) {
	p, _ := New(DefaultConfig())
	run := func() float64 {
		m, err := p.Run(RunSpec{Duration: 10e-6})
		if err != nil {
			t.Fatal(err)
		}
		return m.MinVoltage()
	}
	atNominal := run()
	p.SetVoltageBias(0.90)
	atLow := run()
	if atLow >= atNominal {
		t.Errorf("bias 0.90 voltage %g >= nominal %g", atLow, atNominal)
	}
	if math.Abs(atLow/atNominal-0.90) > 0.02 {
		t.Errorf("voltage scaling %g, want ~0.90", atLow/atNominal)
	}
}

func TestWorstP2PAndMinVoltage(t *testing.T) {
	m := &Measurement{P2P: [NumCores]float64{1, 5, 3, 2, 4, 0}}
	w, c := m.WorstP2P()
	if w != 5 || c != 1 {
		t.Errorf("WorstP2P = %g, %d", w, c)
	}
	m.VMin = [NumCores]float64{1.0, 0.9, 0.95, 1.0, 1.0, 1.0}
	if got := m.MinVoltage(); got != 0.9 {
		t.Errorf("MinVoltage = %g", got)
	}
}

func TestWorkloadHelpers(t *testing.T) {
	cfg := uarch.DefaultConfig()
	idle := Idle(cfg)
	if idle.Power(0) != cfg.IdlePower() || idle.Name() != "idle" {
		t.Errorf("idle workload wrong: %g %q", idle.Power(0), idle.Name())
	}
	s := Steady("x", 25)
	if s.Power(99) != 25 || s.Name() != "x" {
		t.Error("steady workload wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative steady power should panic")
		}
	}()
	Steady("bad", -1)
}

func TestTraceWorkload(t *testing.T) {
	tr := signal.NewTrace(1e-9, 4)
	copy(tr.Samples, []float64{10, 20, 30, 40})
	w, err := NewTraceWorkload("t", tr, 8e-9)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Power(0); got != 10 {
		t.Errorf("Power(0) = %g", got)
	}
	// Past the trace but within the period: holds the last value.
	if got := w.Power(6e-9); got != 40 {
		t.Errorf("Power(hold) = %g", got)
	}
	// Wraps at the period.
	if got := w.Power(8e-9); got != 10 {
		t.Errorf("Power(wrap) = %g", got)
	}
	if _, err := NewTraceWorkload("bad", signal.NewTrace(1, 0), 0); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTraceWorkload("bad", tr, 1e-9); err == nil {
		t.Error("short period accepted")
	}
}

func TestChipPowerTracksWorkload(t *testing.T) {
	p, _ := New(DefaultConfig())
	run := func(watts float64) int64 {
		var wl [NumCores]Workload
		for i := range wl {
			wl[i] = Steady("w", watts)
		}
		m, err := p.Run(RunSpec{Workloads: wl, Duration: 10e-6})
		if err != nil {
			t.Fatal(err)
		}
		return m.ChipPowerMilliwatts
	}
	lo := run(16)
	hi := run(45)
	wantDelta := int64((45 - 16) * NumCores * 1000)
	if hi-lo != wantDelta {
		t.Errorf("chip power delta %d mW, want %d", hi-lo, wantDelta)
	}
	// The reading includes the uncore floor.
	uncore := int64(p.Config().UncorePower * 1000)
	if lo <= uncore {
		t.Errorf("reading %d mW does not exceed uncore %d", lo, uncore)
	}
}

func TestRunPropagatesIntegrationFailure(t *testing.T) {
	// Failure injection: a workload returning NaN power must surface
	// as an error from Run, not as corrupt measurements.
	p, _ := New(DefaultConfig())
	var wl [NumCores]Workload
	wl[0] = FuncWorkload{Label: "nan", Fn: func(t float64) float64 {
		if t > 5e-6 {
			return math.NaN()
		}
		return 10
	}}
	if _, err := p.Run(RunSpec{Workloads: wl, Duration: 20e-6}); err == nil {
		t.Fatal("NaN workload did not fail the run")
	}
}
