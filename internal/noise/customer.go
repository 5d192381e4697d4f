package noise

import (
	"context"

	"voltnoise/internal/core"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/vmin"
)

// CustomerCodeFraction is the paper's extrapolation factor for the
// worst-case margin of regular user code: "historically, maximum power
// stressmarks showed ~20% higher [power] than worst case regular user
// codes", so customer code generates about 80% of the stressmark ΔI.
const CustomerCodeFraction = 0.8

// CustomerCodeMargin estimates the Figure 12 reference line: the
// available margin under the paper's worst-case-customer-code
// assumptions — ΔI events unsynchronized, per-core ΔI at
// CustomerCodeFraction of the maximum — measured with the same Vmin
// methodology as the stressmark rows.
func (l *Lab) CustomerCodeMargin(ctx context.Context, freq float64, vcfg vmin.Config) (*vmin.Result, error) {
	cfg := l.Platform.Config()
	// A high sequence at 80% of the maximum ΔI: interpolate between
	// min and max power.
	pMax := cfg.Core.Power(l.MaxSeq)
	pMin := cfg.Core.Power(l.MinSeq)
	target := pMin + CustomerCodeFraction*(pMax-pMin)
	high, err := stressmark.SequenceWithPower(l.Search, l.MaxSeq, target, 0.5)
	if err != nil {
		return nil, err
	}
	spec := stressmark.Spec{
		HighSeq:      high,
		LowSeq:       l.MinSeq,
		StimulusFreq: freq,
		Duty:         0.5,
	}
	j, err := l.specJob(spec, nil)
	if err != nil {
		return nil, err
	}
	vcfg.Windows = []vmin.Window{{Start: j.start, Duration: j.dur}}
	return vmin.Run(ctx, l.Platform, j.wl, vcfg)
}

// SensitivitySummary quantifies the relative importance of the four
// noise parameters, the paper's Section V-F conclusion: the amount of
// ΔI and the synchronization of ΔI events are the main contributors;
// the number of consecutive events and the stimulus frequency are
// secondary.
type SensitivitySummary struct {
	// DeltaIEffect is the %p2p swing attributable to ΔI magnitude
	// (full vs smallest non-zero ΔI, synchronized, at resonance).
	DeltaIEffect float64
	// SyncEffect is the %p2p swing from enabling synchronization at
	// resonance.
	SyncEffect float64
	// FrequencyEffect is the %p2p swing across stimulus frequencies
	// (resonant vs off-resonant, synchronized).
	FrequencyEffect float64
	// EventsEffect is the %p2p swing across consecutive-event counts
	// (long bursts vs 10-event bursts, synchronized, at resonance).
	EventsEffect float64
}

// Primary reports the paper's headline ordering: the amount of ΔI is
// the dominant factor, and synchronization matters more than the
// number of consecutive events. (The stimulus frequency shows a large
// %p2p effect here as in the paper's own Figure 9; the paper demotes
// it to "secondary" on the strength of the Vmin margins of Figure 12,
// where resonance amplification washes out — see the margin studies.)
func (s SensitivitySummary) Primary() bool {
	return s.DeltaIEffect >= s.SyncEffect &&
		s.DeltaIEffect >= s.FrequencyEffect &&
		s.DeltaIEffect >= s.EventsEffect &&
		s.SyncEffect >= s.EventsEffect
}

// Sensitivity runs the four comparisons at the given resonant and
// off-resonant frequencies and summarizes them. Their five marks are
// measured in one runMeasurements call.
func (l *Lab) Sensitivity(ctx context.Context, resonant, offResonant float64) (*SensitivitySummary, error) {
	// The maximum mark free-running and synchronized at resonance, one
	// synchronized medium mark (core 0 alone, over the synchronized max
	// mark's window), and the synchronized maximum mark off resonance
	// and in 10-event bursts.
	specs := []stressmark.Spec{
		l.MaxSpec(resonant),
		syncSpec(l.MaxSpec(resonant), 1000),
		syncSpec(l.MedSpec(resonant), 1000),
		syncSpec(l.MaxSpec(offResonant), 1000),
		syncSpec(l.MaxSpec(resonant), 10),
	}
	jobs := make([]measJob, len(specs))
	for i, s := range specs {
		j, err := l.specJob(s, nil)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	jobs[2].wl = [core.NumCores]core.Workload{jobs[2].wl[0]}
	ms, err := l.runMeasurements(ctx, jobs)
	if err != nil {
		return nil, err
	}
	var w [5]float64
	for i, m := range ms {
		w[i], _ = m.WorstP2P()
	}
	return &SensitivitySummary{
		SyncEffect:      w[1] - w[0],
		DeltaIEffect:    w[1] - w[2],
		FrequencyEffect: w[1] - w[3],
		EventsEffect:    w[1] - w[4],
	}, nil
}
