package population

import (
	"math"

	"voltnoise/internal/signal"
)

// CState is a sleep-state workload: the core idles in deep sleep at
// the retention-rail residual, then exits into an active instruction
// stream, periodically. The exit edge — residual to full power in one
// integration step — is exactly the paper's ΔI event, and because
// every core of a chip shares the same Period and SleepFrac the exits
// are aligned: the multi-core worst case the guard-band must absorb.
//
// CState is a comparable struct on purpose: cores of one chip whose
// class and aging draws coincide hold equal CState values, and the
// session engines then evaluate the shared waveform once per step
// (the sameWorkload dedup in internal/core).
type CState struct {
	// PSleep is the deep-sleep (C6) residual power in watts.
	PSleep float64
	// PActive is the post-exit active (C0) power in watts.
	PActive float64
	// Period is the sleep/wake cycle length in seconds.
	Period float64
	// SleepFrac is the fraction of each period spent asleep; the exit
	// edge sits at SleepFrac*Period into the period.
	SleepFrac float64
}

// Power implements core.Workload: asleep for the first SleepFrac of
// every period, active for the rest.
func (w CState) Power(t float64) float64 {
	p, _ := w.Hold(t)
	return p
}

// Hold implements the optional Hold of core.Workload. The period index
// floor(t/Period) and, for a fixed index, the phase are monotone in t,
// so asleep the value holds until the exit edge (or the period end,
// whichever comes first) and active until the period end, each less
// signal.HoldGuard, which covers the rounding of the phase.
func (w CState) Hold(t float64) (p, until float64) {
	phase := t - w.Period*math.Floor(t/w.Period)
	p, end := w.PActive, w.Period
	if exit := w.SleepFrac * w.Period; phase < exit {
		p, end = w.PSleep, min(exit, w.Period)
	}
	if !(w.Period > 0) {
		return p, t // no period to predict an edge from: no hold
	}
	return p, signal.HoldUntil(t, end-phase, w.Period)
}

// Name implements core.Workload.
func (w CState) Name() string { return "c6-exit" }
