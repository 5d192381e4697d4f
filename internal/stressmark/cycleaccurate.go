package stressmark

import (
	"fmt"
	"math"

	"voltnoise/internal/core"
	"voltnoise/internal/signal"
	"voltnoise/internal/uarch"
)

// CycleAccurateWorkload lowers a free-running spec to a workload whose
// power waveform comes from the cycle-level executor instead of the
// analytic envelope: the high and low sequences are actually executed
// for their phase durations, per-cycle energies are bucketed into
// dtBucket bins, and the resulting one-period power trace replays
// periodically. It exists to validate the (much faster) envelope mode:
// the ablation benchmark compares platform noise under both.
func CycleAccurateWorkload(s Spec, cfg uarch.Config, dtBucket float64) (core.Workload, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Sync != nil {
		return nil, fmt.Errorf("stressmark: cycle-accurate mode supports free-running specs")
	}
	if dtBucket <= 0 {
		return nil, fmt.Errorf("stressmark: non-positive bucket %g", dtBucket)
	}
	period := 1 / s.StimulusFreq
	cycleTime := cfg.CycleTime()
	cyclesPerPeriod := int(math.Round(period / cycleTime))
	highCycles := int(float64(cyclesPerPeriod) * s.Duty)
	lowCycles := cyclesPerPeriod - highCycles
	if highCycles < 1 || lowCycles < 1 {
		return nil, fmt.Errorf("stressmark: stimulus %g Hz too fast for cycle-accurate mode", s.StimulusFreq)
	}

	run := func(p *uarch.Program, cycles int, energies []float64) ([]float64, error) {
		ex, err := uarch.NewExecutor(cfg, p)
		if err != nil {
			return nil, err
		}
		// Warm the pipeline into steady state, as a long-running phase
		// would be.
		for i := 0; i < 256; i++ {
			ex.StepCycle()
		}
		for i := 0; i < cycles; i++ {
			energies = append(energies, ex.StepCycle())
		}
		return energies, nil
	}
	energies := make([]float64, 0, cyclesPerPeriod)
	energies, err := run(s.HighSeq, highCycles, energies)
	if err != nil {
		return nil, err
	}
	energies, err = run(s.LowSeq, lowCycles, energies)
	if err != nil {
		return nil, err
	}

	// Bucket per-cycle energy into the PDN timestep.
	perBucket := int(math.Round(dtBucket / cycleTime))
	if perBucket < 1 {
		perBucket = 1
	}
	nBuckets := (len(energies) + perBucket - 1) / perBucket
	tr := signal.NewTrace(dtBucket, nBuckets)
	for i, e := range energies {
		tr.Samples[i/perBucket] += e
	}
	for i := range tr.Samples {
		lo := i * perBucket
		hi := lo + perBucket
		if hi > len(energies) {
			hi = len(energies)
		}
		span := float64(hi-lo) * cycleTime
		tr.Samples[i] = cfg.StaticPower + tr.Samples[i]/span
	}
	tr.Start = -s.Phase // phase-shift the replay like the envelope
	// Guard against the bucketed trace exceeding the period by a
	// floating-point ulp.
	if d := tr.Duration(); d > period {
		period = d
	}
	return core.NewTraceWorkload(fmt.Sprintf("didt-cycle@%s", formatFreq(s.StimulusFreq)), tr, period)
}
