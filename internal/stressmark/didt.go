package stressmark

import (
	"fmt"
	"math"

	"voltnoise/internal/core"
	"voltnoise/internal/isa"
	"voltnoise/internal/signal"
	"voltnoise/internal/tod"
	"voltnoise/internal/uarch"
)

// Spec is a fully parameterized dI/dt stressmark: the paper's skeleton
// of Figure 6. One copy runs per core; the four knobs of the paper's
// sensitivity study map to the four configurable aspects below.
type Spec struct {
	// HighSeq and LowSeq are the high- and low-power instruction
	// sequences concatenated inside the dI/dt loop. Their power
	// difference sets the ΔI magnitude.
	HighSeq, LowSeq *uarch.Program
	// StimulusFreq is the rate of ΔI events in hertz: one
	// high-power/low-power pair per period.
	StimulusFreq float64
	// Duty is the fraction of each period spent in the high-power
	// sequence. The paper derives sequence repeat counts from the
	// sequence IPCs to hit 50%.
	Duty float64
	// Events is the number of consecutive ΔI events per burst between
	// synchronization points. Zero means unbounded (free-running).
	Events int
	// Sync, when non-nil, is the TOD spin-loop exit condition executed
	// before each burst. Misaligned copies use conditions offset via
	// SyncCondition.Misalign.
	Sync *tod.SyncCondition
	// Phase shifts the free-running waveform in time (used to model
	// uncoordinated, unsynchronized copies). Ignored when Sync is set.
	Phase float64
	// EdgeTime is the power slew duration of each transition,
	// modelling pipeline drain/refill. Zero selects the default (2ns).
	EdgeTime float64
}

// DefaultEdgeTime approximates the pipeline drain/refill interval of
// the modelled core (about 11 cycles at 5.5 GHz).
const DefaultEdgeTime = 2e-9

// Validate reports whether the spec is well formed.
func (s Spec) Validate() error {
	switch {
	case s.HighSeq == nil || s.LowSeq == nil:
		return fmt.Errorf("stressmark: spec needs both sequences")
	case s.StimulusFreq <= 0:
		return fmt.Errorf("stressmark: non-positive stimulus frequency %g", s.StimulusFreq)
	case s.Duty <= 0 || s.Duty >= 1:
		return fmt.Errorf("stressmark: duty %g outside (0,1)", s.Duty)
	case s.Events < 0:
		return fmt.Errorf("stressmark: negative event count %d", s.Events)
	case s.EdgeTime < 0:
		return fmt.Errorf("stressmark: negative edge time %g", s.EdgeTime)
	}
	if s.Sync != nil {
		if err := s.Sync.Validate(); err != nil {
			return err
		}
		if s.Events == 0 {
			return fmt.Errorf("stressmark: synchronized spec needs a finite event count")
		}
		if float64(s.Events)/s.StimulusFreq > s.Sync.Period() {
			return fmt.Errorf("stressmark: burst (%d events at %g Hz) exceeds the sync period %g",
				s.Events, s.StimulusFreq, s.Sync.Period())
		}
	}
	return nil
}

// SpinProgram returns the synchronization spin loop: read the TOD
// (store clock), compare, branch back. Its power sits near the
// low-power sequence, which is why the paper's synchronized
// stressmarks idle quietly between bursts.
func SpinProgram(table *isa.Table) *uarch.Program {
	return uarch.MustProgram("syncspin", []*isa.Instruction{
		table.MustLookup("STCK"),
		table.MustLookup("CIB"),
	})
}

// Workload lowers the spec to a core workload for the platform,
// computing phase powers from the core model. table supplies the spin
// loop for synchronized marks.
func (s Spec) Workload(cfg uarch.Config, table *isa.Table) (core.Workload, error) {
	w, err := s.lower(cfg, table)
	if err != nil {
		return nil, err
	}
	return &w, nil
}

// lower is Workload's body, returning the runtime form by value so a
// caller instantiating several copies pays for the lowering once.
func (s Spec) lower(cfg uarch.Config, table *isa.Table) (didtWorkload, error) {
	if err := s.Validate(); err != nil {
		return didtWorkload{}, err
	}
	edge := s.EdgeTime
	if edge == 0 {
		edge = DefaultEdgeTime
	}
	w := didtWorkload{
		name: fmt.Sprintf("didt@%s", formatFreq(s.StimulusFreq)),
		wave: signal.SquareWave{
			High:   cfg.Power(s.HighSeq),
			Low:    cfg.Power(s.LowSeq),
			Period: 1 / s.StimulusFreq,
			Duty:   s.Duty,
			Rise:   edge,
			Phase:  s.Phase,
		},
		spin: cfg.Power(SpinProgram(table)),
	}
	if s.Sync != nil {
		sync := *s.Sync
		w.sync = &sync
		w.wave.Phase = 0 // bursts are phase-locked to the sync point
		w.burstLen = float64(s.Events) / s.StimulusFreq
		w.syncPeriod = sync.Period()
		w.syncOffset = float64(sync.Match) * tod.TickSeconds
		w.name += "+sync"
	}
	return w, nil
}

// DeltaPower returns the stressmark's power swing (high minus low
// phase) in watts under the given core model.
func (s Spec) DeltaPower(cfg uarch.Config) float64 {
	return cfg.Power(s.HighSeq) - cfg.Power(s.LowSeq)
}

// didtWorkload is the runtime form of a stressmark: a slew-limited
// square wave, optionally gated into TOD-synchronized bursts with spin
// waits in between.
type didtWorkload struct {
	name     string
	wave     signal.SquareWave
	spin     float64
	sync     *tod.SyncCondition
	burstLen float64
	// Cached from sync at lowering time: Power sits on the transient
	// engine's per-step hot path, and both values are pure functions
	// of the (immutable) condition.
	syncPeriod float64
	syncOffset float64
}

func (w *didtWorkload) Name() string { return w.name }

func (w *didtWorkload) Power(t float64) float64 {
	p, _ := w.Hold(t)
	return p
}

// Hold implements the optional Hold of core.Workload. Unsynchronized,
// it is the square wave's. Synchronized, the burst index
// floor((t-offset)/period) and, for a fixed index, the burst-relative
// time dt are monotone in t, so:
//   - inside a burst the value holds while dt stays short of both the
//     wave's own hold end and the burst end (which Validate keeps
//     inside the sync period, so the index cannot move either);
//   - in the spin wait it holds until the next burst starts.
//
// Each hold ends signal.HoldGuard before that bound, which covers the
// rounding between t and dt (see HoldGuard).
func (w *didtWorkload) Hold(t float64) (p, until float64) {
	if w.sync == nil {
		return w.wave.Hold(t)
	}
	period, offset := w.syncPeriod, w.syncOffset
	burstStart := math.Floor((t-offset)/period)*period + offset
	dt := t - burstStart
	span := math.Abs(offset) + period
	if dt >= 0 && dt < w.burstLen {
		// Inside the burst: the dI/dt loop runs phase-locked to the
		// burst start.
		p, u := w.wave.Hold(dt)
		return p, signal.HoldUntil(t, min(u, w.burstLen)-dt, span)
	}
	if dt < 0 {
		return w.spin, t // burstStart rounded past t: no hold
	}
	return w.spin, signal.HoldUntil(t, period-dt, span)
}

// UnsyncPhases are the deterministic per-core phase fractions used to
// model unsynchronized stressmark copies: on real hardware the copies
// start at arbitrary, uncoordinated instants, and a sticky-mode
// measurement over minutes observes the partially aligned episodes of
// that drift. The values are fixed (rather than randomized) so every
// experiment is exactly reproducible, and are chosen so the net
// fundamental alignment factor |sum(e^{j*theta})|/N is ~0.67 — the
// partial-coherence level that reproduces the paper's observed ratio
// between unsynchronized and synchronized noise.
var UnsyncPhases = [core.NumCores]float64{0.00, 0.58, 0.70, 0.77, 0.86, 0.90}

// UnsyncWorkloads instantiates one free-running copy of the spec per
// core with the deterministic unsynchronized phases. The phase enters
// only the square wave, so the spec is lowered once and each core gets
// a copy with its own phase — the same workloads as lowering the spec
// per core with Phase set, without repeating the power model.
func UnsyncWorkloads(s Spec, cfg uarch.Config, table *isa.Table) ([core.NumCores]core.Workload, error) {
	var out [core.NumCores]core.Workload
	if s.Sync != nil {
		return out, fmt.Errorf("stressmark: UnsyncWorkloads with a synchronized spec")
	}
	base, err := s.lower(cfg, table)
	if err != nil {
		return out, err
	}
	copies := new([core.NumCores]didtWorkload)
	for i := range out {
		copies[i] = base
		copies[i].wave.Phase = UnsyncPhases[i] / s.StimulusFreq
		out[i] = &copies[i]
	}
	return out, nil
}

// SyncWorkloads instantiates one synchronized copy per core. offsets—
// in 62.5ns TOD ticks—misalign individual copies relative to the base
// condition; nil means perfectly aligned.
func SyncWorkloads(s Spec, cfg uarch.Config, table *isa.Table, offsets *[core.NumCores]uint64) ([core.NumCores]core.Workload, error) {
	var out [core.NumCores]core.Workload
	if s.Sync == nil {
		return out, fmt.Errorf("stressmark: SyncWorkloads with an unsynchronized spec")
	}
	if err := s.Sync.Validate(); err != nil {
		return out, err // Misalign would silently wrap an invalid Match
	}
	// Lowering is pure, so cores whose sync conditions coincide share
	// one workload instance: aligned copies (the common case) all point
	// at the same object, which lets the measurement engines evaluate
	// the shared power waveform once per step for the whole group.
	byOffset := make(map[uint64]core.Workload, 1)
	for i := range out {
		var off uint64
		if offsets != nil {
			off = offsets[i]
		}
		if w, ok := byOffset[off]; ok {
			out[i] = w
			continue
		}
		si := s
		cond := s.Sync.Misalign(off)
		si.Sync = &cond
		w, err := si.Workload(cfg, table)
		if err != nil {
			return out, err
		}
		byOffset[off] = w
		out[i] = w
	}
	return out, nil
}

func formatFreq(f float64) string {
	switch {
	case f >= 1e6:
		return fmt.Sprintf("%gMHz", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%gkHz", f/1e3)
	default:
		return fmt.Sprintf("%gHz", f)
	}
}
