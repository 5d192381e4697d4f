package vmin

import (
	"context"
	"math"
	"testing"

	"voltnoise/internal/core"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(Config) Config{
		"zero fail V":  func(c Config) Config { c.FailVoltage = 0; return c },
		"start <= min": func(c Config) Config { c.StartBias = c.MinBias; return c },
		"no windows":   func(c Config) Config { c.Windows = nil; return c },
		"empty window": func(c Config) Config { c.Windows = []Window{{Duration: 0}}; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultConfig()).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	p, _ := core.New(core.DefaultConfig())
	bad := DefaultConfig()
	bad.Windows = nil
	var wl [core.NumCores]core.Workload
	if _, err := Run(context.Background(), p, wl, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestIdleWorkloadHasLargeMargin(t *testing.T) {
	p, _ := core.New(core.DefaultConfig())
	cfg := DefaultConfig()
	cfg.MinBias = 0.90
	cfg.Windows = []Window{{Start: 0, Duration: 10e-6}}
	var wl [core.NumCores]core.Workload
	res, err := Run(context.Background(), p, wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An idle chip at bias 0.90 sits around 0.94V > 0.90V: no failure.
	if res.Failed {
		t.Errorf("idle chip failed at bias %g", res.FailBias)
	}
	if res.MarginPercent < 9.9 {
		t.Errorf("idle margin %g%%, want full 10%%", res.MarginPercent)
	}
	// The platform's bias must be untouched.
	if p.VoltageBias() != 1.0 {
		t.Errorf("bias left at %g", p.VoltageBias())
	}
}

// TestRunLeavesPlatformBias: Run probes biases on pooled sessions, so
// a caller's own bias setting survives the walk.
func TestRunLeavesPlatformBias(t *testing.T) {
	p, _ := core.New(core.DefaultConfig())
	if err := p.SetVoltageBias(0.97); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MinBias = 0.90
	cfg.Windows = []Window{{Start: 0, Duration: 10e-6}}
	var wl [core.NumCores]core.Workload
	if _, err := Run(context.Background(), p, wl, cfg); err != nil {
		t.Fatal(err)
	}
	if got := p.VoltageBias(); got != 0.97 {
		t.Errorf("bias left at %g, want the caller's 0.97", got)
	}
}

func TestNoisyWorkloadFailsEarlier(t *testing.T) {
	p, _ := core.New(core.DefaultConfig())
	cfg := DefaultConfig()
	cfg.MinBias = 0.80
	cfg.Windows = []Window{{Start: 0, Duration: 30e-6}}

	// A violent aligned 2 MHz oscillation on all cores.
	var noisy [core.NumCores]core.Workload
	for i := range noisy {
		noisy[i] = core.FuncWorkload{Label: "osc", Fn: func(tm float64) float64 {
			if math.Mod(tm, 0.5e-6) < 0.25e-6 {
				return 50
			}
			return 16
		}}
	}
	resNoisy, err := Run(context.Background(), p, noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A steady workload of the same mean power.
	var steadyWl [core.NumCores]core.Workload
	for i := range steadyWl {
		steadyWl[i] = core.Steady("steady", 33)
	}
	resSteady, err := Run(context.Background(), p, steadyWl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !resNoisy.Failed {
		t.Fatal("noisy workload never failed")
	}
	if resSteady.Failed && resSteady.FailBias >= resNoisy.FailBias {
		t.Errorf("steady failed at bias %g >= noisy %g", resSteady.FailBias, resNoisy.FailBias)
	}
	if resSteady.MarginPercent <= resNoisy.MarginPercent {
		t.Errorf("steady margin %g%% <= noisy margin %g%%", resSteady.MarginPercent, resNoisy.MarginPercent)
	}
	if resNoisy.Steps < 1 {
		t.Error("no steps recorded")
	}
}

func TestMarginQuantizedToBiasSteps(t *testing.T) {
	p, _ := core.New(core.DefaultConfig())
	cfg := DefaultConfig()
	cfg.MinBias = 0.92
	cfg.Windows = []Window{{Start: 0, Duration: 5e-6}}
	var wl [core.NumCores]core.Workload
	res, err := Run(context.Background(), p, wl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Margin must be a multiple of the 0.5% step.
	steps := res.MarginPercent / (core.BiasStep * 100)
	if math.Abs(steps-math.Round(steps)) > 1e-6 {
		t.Errorf("margin %g%% is not step-quantized", res.MarginPercent)
	}
}

// TestFold pins the walk's reduction on hand-made steps: the margin is
// the last safe bias below nominal (StartBias when the first step
// fails), steps after the failing one are ignored, and a walk that
// never fails reports the full range down to MinBias.
func TestFold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FailVoltage = 0.9
	cfg.MinBias = 0.985
	safe := func(bias float64) StepEvent { return StepEvent{Bias: bias, MinV: 0.95} }
	fail := func(bias float64) StepEvent { return StepEvent{Bias: bias, MinV: 0.85} }
	margin := func(bias float64) float64 { return (1 - bias) * 100 }
	cases := []struct {
		name  string
		steps []StepEvent
		want  Result
	}{
		{"first step fails", []StepEvent{fail(1.0), safe(0.995)},
			Result{Failed: true, FailBias: 1.0, MarginPercent: 0, Steps: 1}},
		{"later step fails", []StepEvent{safe(1.0), {Bias: 0.995, MinV: 0.91}, fail(0.99), fail(0.985)},
			Result{Failed: true, FailBias: 0.99, MarginPercent: margin(0.995), Steps: 3, MinVoltageSeen: 0.91}},
		{"no step fails", []StepEvent{safe(1.0), safe(0.995), safe(0.99), {Bias: 0.985, MinV: 0.92}},
			Result{MarginPercent: margin(0.985), Steps: 4, MinVoltageSeen: 0.92}},
	}
	for _, c := range cases {
		if got := Fold(cfg, c.steps); *got != c.want {
			t.Errorf("%s: Fold = %+v, want %+v", c.name, *got, c.want)
		}
	}
}
