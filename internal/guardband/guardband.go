// Package guardband implements the paper's utilization-based dynamic
// voltage guard-banding concept (Section VII-B): the worst-case noise
// — and therefore the voltage margin that must be provisioned — is
// bounded by how many cores can be executing work. A controller that
// tracks core utilization can therefore run the chip at a lower
// setpoint whenever the machine is not fully loaded, recovering the
// margin head-room without risking reliability.
package guardband

import (
	"fmt"

	"voltnoise/internal/core"
)

// MarginTable maps the number of runnable cores to the voltage margin
// (percent of nominal) that must be provisioned for worst-case noise
// at that utilization. Entry 0 is the idle margin.
type MarginTable struct {
	// MarginPercent[n] is the required margin with n active cores.
	MarginPercent [core.NumCores + 1]float64
}

// Validate checks the table is monotone: allowing more cores can never
// reduce the worst-case noise, so margins must be non-decreasing.
func (t MarginTable) Validate() error {
	for i := 1; i < len(t.MarginPercent); i++ {
		if t.MarginPercent[i] < t.MarginPercent[i-1] {
			return fmt.Errorf("guardband: margin[%d]=%g%% below margin[%d]=%g%%",
				i, t.MarginPercent[i], i-1, t.MarginPercent[i-1])
		}
	}
	if t.MarginPercent[0] < 0 {
		return fmt.Errorf("guardband: negative idle margin")
	}
	return nil
}

// FromDroops builds a margin table from measured worst-case droop
// fractions per active-core count (e.g. a noise mapping study):
// margin = worst droop percentage plus the given safety percentage.
// Droop entries must cover 0..NumCores; the table is made monotone by
// running maximum.
func FromDroops(worstDroopPercent [core.NumCores + 1]float64, safetyPercent float64) (MarginTable, error) {
	if safetyPercent < 0 {
		return MarginTable{}, fmt.Errorf("guardband: negative safety %g", safetyPercent)
	}
	var t MarginTable
	runMax := 0.0
	for i, d := range worstDroopPercent {
		if d < 0 {
			return MarginTable{}, fmt.Errorf("guardband: negative droop at %d cores", i)
		}
		if d > runMax {
			runMax = d
		}
		t.MarginPercent[i] = runMax + safetyPercent
	}
	return t, nil
}

// Controller adjusts the supply setpoint from core-utilization events.
type Controller struct {
	table  MarginTable
	active int
}

// NewController builds a controller; the table must validate.
func NewController(table MarginTable) (*Controller, error) {
	if err := table.Validate(); err != nil {
		return nil, err
	}
	return &Controller{table: table}, nil
}

// SetActiveCores informs the controller that n cores may execute
// work. It returns the new supply bias: when a core is about to be
// woken the caller must raise the voltage *before* dispatching work to
// it; when a core is released the voltage may be lowered afterwards —
// the ordering the paper describes.
func (c *Controller) SetActiveCores(n int) (bias float64, err error) {
	if n < 0 || n > core.NumCores {
		return 0, fmt.Errorf("guardband: %d active cores", n)
	}
	c.active = n
	return c.Bias(), nil
}

// Bias returns the current setpoint as a bias multiplier: nominal
// voltage scaled down by the margin head-room that full utilization
// would need but the current utilization does not.
func (c *Controller) Bias() float64 {
	full := c.table.MarginPercent[core.NumCores]
	need := c.table.MarginPercent[c.active]
	return 1 - (full-need)/100
}

// UtilizationPhase is one segment of a utilization trace.
type UtilizationPhase struct {
	// ActiveCores is the utilization during the phase.
	ActiveCores int
	// Duration is the phase length in seconds.
	Duration float64
}

// Savings reports the outcome of replaying a utilization trace.
type Savings struct {
	// MeanBias is the time-weighted average setpoint.
	MeanBias float64
	// EnergySavedPercent estimates the dynamic-energy saving relative
	// to a static worst-case setpoint, using the CV^2 scaling of
	// dynamic power (energy ∝ V^2 at fixed work).
	EnergySavedPercent float64
	// TotalTime is the trace duration.
	TotalTime float64
}

// Replay runs the controller over a utilization trace and reports the
// achievable savings versus a static worst-case guard-band.
func Replay(c *Controller, trace []UtilizationPhase) (Savings, error) {
	if len(trace) == 0 {
		return Savings{}, fmt.Errorf("guardband: empty utilization trace")
	}
	var s Savings
	var biasTime, energyRel float64
	for _, ph := range trace {
		if ph.Duration <= 0 {
			return Savings{}, fmt.Errorf("guardband: non-positive phase duration %g", ph.Duration)
		}
		bias, err := c.SetActiveCores(ph.ActiveCores)
		if err != nil {
			return Savings{}, err
		}
		biasTime += bias * ph.Duration
		energyRel += bias * bias * ph.Duration
		s.TotalTime += ph.Duration
	}
	s.MeanBias = biasTime / s.TotalTime
	// Static guard-band runs at bias 1.0 the whole time.
	s.EnergySavedPercent = (1 - energyRel/s.TotalTime) * 100
	return s, nil
}
