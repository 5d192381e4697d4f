package core

import (
	"context"
	"fmt"
	"math"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
	"voltnoise/internal/skitter"
	"voltnoise/internal/uarch"
)

// NumCores is the number of cores on the modelled chip.
const NumCores = pdn.NumCores

// BiasStep is the voltage-control granularity of the service element:
// 0.5% of nominal, as on the paper's platform.
const BiasStep = 0.005

// Config assembles the full platform model.
type Config struct {
	// PDN is the power-distribution-network model.
	PDN pdn.ZEC12Config
	// Core is the core microarchitecture/power model.
	Core uarch.Config
	// Skitter is the base skitter-macro model; per-core Gain is
	// overridden by CoreGain.
	Skitter skitter.Config
	// CoreGain is the per-core skitter sensitivity multiplier modelling
	// manufacturing process variation. The calibrated defaults make
	// cores 2 and 4 the noisiest, as the paper observes.
	CoreGain [NumCores]float64
	// UncorePower is the constant power of the nest (L3, MCU, GX) in
	// watts, drawn at the L3 node.
	UncorePower float64
	// Dt is the PDN integration timestep in seconds.
	Dt float64
}

// DefaultConfig returns the calibrated platform.
func DefaultConfig() Config {
	return Config{
		PDN:         pdn.DefaultZEC12Config(),
		Core:        uarch.DefaultConfig(),
		Skitter:     skitter.DefaultConfig(),
		CoreGain:    [NumCores]float64{1.00, 0.96, 1.06, 0.97, 1.04, 0.95},
		UncorePower: 55,
		Dt:          2e-9,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Skitter.Validate(); err != nil {
		return err
	}
	if c.UncorePower < 0 {
		return fmt.Errorf("core: negative uncore power %g", c.UncorePower)
	}
	if c.Dt <= 0 {
		return fmt.Errorf("core: non-positive timestep %g", c.Dt)
	}
	for i, g := range c.CoreGain {
		if g <= 0 {
			return fmt.Errorf("core: non-positive gain %g for core %d", g, i)
		}
	}
	return nil
}

// Platform is the simulated zEC12 system under test.
type Platform struct {
	cfg      Config
	bias     float64 // voltage bias multiplier, quantized to BiasStep
	sessions *SessionPool
}

// New builds a platform at nominal voltage (bias 1.0).
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Platform{cfg: cfg, bias: 1.0, sessions: NewSessionPool(cfg)}, nil
}

// Config returns the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// Sessions returns the platform's session pool, so a campaign of runs
// amortizes circuit construction and matrix factorization. It is safe
// for concurrent use.
func (p *Platform) Sessions() *SessionPool { return p.sessions }

// quantizeBias rounds a supply scaling factor to the service element's
// 0.5% steps and checks that it lands in [0.70, 1.10].
func quantizeBias(bias float64) (float64, error) {
	q := math.Round(bias/BiasStep) * BiasStep
	if q < 0.70 || q > 1.10 {
		return 0, fmt.Errorf("core: voltage bias %g outside [0.70, 1.10]", q)
	}
	return q, nil
}

// SetVoltageBias sets the supply scaling factor, quantized to the
// service element's 0.5% steps. Bias must land in [0.70, 1.10].
func (p *Platform) SetVoltageBias(bias float64) error {
	q, err := quantizeBias(bias)
	if err != nil {
		return err
	}
	p.bias = q
	return nil
}

// VoltageBias returns the current (quantized) bias.
func (p *Platform) VoltageBias() float64 { return p.bias }

// NominalVoltage returns the effective supply setpoint (Vnom * bias).
func (p *Platform) NominalVoltage() float64 { return p.cfg.PDN.Vnom * p.bias }

// RunSpec describes one measurement run.
type RunSpec struct {
	// Workloads maps cores to workloads; nil entries idle.
	Workloads [NumCores]Workload
	// Start is the absolute time at which measurement begins.
	Start float64
	// Duration is the measurement window length. Must be positive.
	Duration float64
	// Warmup is simulated before Start to settle the PDN; zero selects
	// the default (30 us, covering the slowest PDN dynamics).
	Warmup float64
	// Record retains per-core voltage traces in the measurement
	// (memory-proportional to Duration/Dt).
	Record bool
}

// DefaultWarmup is the PDN settling time simulated before measurement.
const DefaultWarmup = 30e-6

// Measurement is the result of a run: what the paper's measurement
// infrastructure reports.
type Measurement struct {
	// P2P is the per-core skitter reading in %p2p.
	P2P [NumCores]float64
	// PosMin/PosMax are the per-core sticky tap-position extremes
	// behind P2P, for combining windows.
	PosMin, PosMax [NumCores]int
	// VMin/VMax are the per-core supply-voltage extremes in volts.
	VMin, VMax [NumCores]float64
	// ChipPowerMilliwatts is the mean chip power over the window as
	// the service element reports it (milliwatt granularity).
	ChipPowerMilliwatts int64
	// Traces holds the per-core voltage waveforms when RunSpec.Record
	// was set.
	Traces [NumCores]*signal.Trace
	// NominalPos is the skitter nominal tap position, the denominator
	// of the %p2p readings.
	NominalPos int
	// Start and Duration echo the measured window.
	Start, Duration float64
}

// WorstP2P returns the maximum per-core reading and the core showing
// it — the paper's headline "maximum noise" metric.
func (m *Measurement) WorstP2P() (float64, int) {
	worst, core := m.P2P[0], 0
	for i := 1; i < NumCores; i++ {
		if m.P2P[i] > worst {
			worst, core = m.P2P[i], i
		}
	}
	return worst, core
}

// MinVoltage returns the deepest droop seen on any core.
func (m *Measurement) MinVoltage() float64 {
	v := m.VMin[0]
	for _, x := range m.VMin[1:] {
		if x < v {
			v = x
		}
	}
	return v
}

// Run executes one measurement window and returns what the sensors
// saw. It runs on a width-1 session drawn from Sessions() at the
// platform's bias and put back afterwards, so Run never mutates the
// platform and repeated runs pay the circuit setup once.
func (p *Platform) Run(spec RunSpec) (*Measurement, error) {
	return p.RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: a canceled context interrupts
// the integration mid-window.
func (p *Platform) RunContext(ctx context.Context, spec RunSpec) (*Measurement, error) {
	s, err := p.sessions.GetBatch(p.bias, 1)
	if err != nil {
		return nil, err
	}
	defer p.sessions.PutBatch(s)
	ms, err := s.RunBatchContext(ctx, []RunSpec{spec})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}
