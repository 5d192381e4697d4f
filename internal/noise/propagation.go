package noise

import (
	"fmt"

	"voltnoise/internal/core"
	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
)

// PropagationResult is the paper's Figure 13b experiment: a large ΔI
// event on one core while the others idle, observed on every core.
type PropagationResult struct {
	// Source is the excited core.
	Source int
	// Traces are the per-core voltage waveforms.
	Traces [core.NumCores]*signal.Trace
	// DroopDepth is each core's maximum droop below its pre-event
	// level, in volts.
	DroopDepth [core.NumCores]float64
	// ArrivalTime is the time (seconds after the event) at which each
	// core's droop first reaches half its final depth — the "noise is
	// transferred faster" observable.
	ArrivalTime [core.NumCores]float64
}

// Propagation simulates a ΔI step of the given amperage on one core
// (the simulation counterpart of the paper's Cadence/Sigrity study)
// and characterizes how the disturbance reaches the other cores.
func (l *Lab) Propagation(source int, deltaI, duration float64) (*PropagationResult, error) {
	if source < 0 || source >= core.NumCores {
		return nil, fmt.Errorf("noise: source core %d", source)
	}
	if deltaI <= 0 || duration <= 0 {
		return nil, fmt.Errorf("noise: bad step %gA over %gs", deltaI, duration)
	}
	cfg := l.Platform.Config()
	circuit, nodes := pdn.ZEC12(cfg.PDN)
	const eventTime = 0.5e-6
	idle := cfg.Core.IdlePower() / cfg.PDN.Vnom
	for i := 0; i < core.NumCores; i++ {
		i := i
		circuit.AddLoad(fmt.Sprintf("core%d", i), nodes.Core[i], func(t float64) float64 {
			if i == source && t >= eventTime {
				return idle + deltaI
			}
			return idle
		})
	}
	circuit.AddLoad("uncore", nodes.L3, func(float64) float64 { return cfg.UncorePower / cfg.PDN.Vnom })

	tr, err := pdn.NewTransientAt(circuit, cfg.Dt, 0)
	if err != nil {
		return nil, err
	}
	probes := make([]pdn.NodeID, core.NumCores)
	for i := range probes {
		probes[i] = nodes.Core[i]
	}
	traces, err := tr.Run(duration, probes)
	if err != nil {
		return nil, err
	}
	res := &PropagationResult{Source: source}
	for i, t := range traces {
		res.Traces[i] = t
		base := t.Samples[0]
		depth := 0.0
		for _, v := range t.Samples {
			if d := base - v; d > depth {
				depth = d
			}
		}
		res.DroopDepth[i] = depth
		// Arrival: first crossing of half the final depth after the event.
		half := base - depth/2
		res.ArrivalTime[i] = duration
		for s, v := range t.Samples {
			if t.Time(s) >= eventTime && v <= half {
				res.ArrivalTime[i] = t.Time(s) - eventTime
				break
			}
		}
	}
	return res, nil
}
