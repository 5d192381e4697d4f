// Package core assembles the simulated zEC12-like evaluation platform:
// six modelled cores drawing current from the calibrated PDN, per-core
// skitter macros sensing the resulting supply noise, a service-element
// style power monitor, and fine-grained (0.5% step) voltage control.
// It is the substitute for the paper's physical measurement
// infrastructure; experiments run workloads on it and read noise,
// power and voltage extremes back.
package core

import (
	"fmt"
	"math"
	"reflect"

	"voltnoise/internal/signal"
	"voltnoise/internal/uarch"
)

// Workload models what one core executes over time, reduced to the
// observable the PDN cares about: instantaneous core power. Workload
// power is defined on absolute simulation time so that deliberately
// (mis)aligned multi-core stressmarks express their phase relationship
// naturally.
//
// A Workload whose power is piecewise constant may also report how
// long its value holds, through an optional method
//
//	Hold(t float64) (p, until float64)
//
// The contract: p equals Power(t) bit for bit, and Power(t') equals p
// bit for bit at every t' in [t, until); until <= t (or NaN) means no
// hold. The session fill then evaluates such a workload only once its
// hold runs out, and keeps the held sample in between. A hold derived
// from a predicted edge ends signal.HoldGuard before it, which its
// comment proves is exact. Workloads without Hold are evaluated every
// step.
type Workload interface {
	// Power returns the core power in watts at absolute time t.
	Power(t float64) float64
	// Name identifies the workload in results.
	Name() string
}

// holder is a Workload's optional Hold method (see Workload).
type holder interface {
	Hold(t float64) (p, until float64)
}

// idle is the no-workload workload: the core burns static power only.
type idle struct{ watts float64 }

// Idle returns the idle workload for the given core model.
func Idle(cfg uarch.Config) Workload { return idle{watts: cfg.IdlePower()} }

func (w idle) Power(float64) float64 { return w.watts }
func (w idle) Name() string          { return "idle" }

// Hold implements the optional Hold of Workload: idle power holds
// forever.
func (w idle) Hold(float64) (p, until float64) { return w.watts, math.Inf(1) }

// steady is a constant-power workload.
type steady struct {
	name  string
	watts float64
}

// Steady returns a constant-power workload, typically used for
// characterized instruction sequences in envelope mode.
func Steady(name string, watts float64) Workload {
	if watts < 0 {
		panic(fmt.Sprintf("core: negative steady power %g", watts))
	}
	return steady{name: name, watts: watts}
}

func (w steady) Power(float64) float64 { return w.watts }
func (w steady) Name() string          { return w.name }

// Hold implements the optional Hold of Workload: steady power holds
// forever.
func (w steady) Hold(float64) (p, until float64) { return w.watts, math.Inf(1) }

// TraceWorkload replays a precomputed power trace, repeating it
// periodically. It is the bridge from the cycle-accurate executor to
// the PDN: the per-cycle energy trace of a program window becomes a
// power waveform.
type TraceWorkload struct {
	// Label names the workload.
	Label string
	// Trace is the power waveform (watts) over one period; time is
	// relative to the period start.
	Trace *signal.Trace
	// Period is the repetition period; it must be at least the trace
	// duration. Zero means the trace duration itself.
	Period float64
}

// NewTraceWorkload validates and builds a trace-replay workload.
func NewTraceWorkload(label string, tr *signal.Trace, period float64) (*TraceWorkload, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, fmt.Errorf("core: trace workload %q with empty trace", label)
	}
	if period == 0 {
		period = tr.Duration()
	}
	if period < tr.Duration() {
		return nil, fmt.Errorf("core: trace workload %q period %g shorter than trace %g", label, period, tr.Duration())
	}
	return &TraceWorkload{Label: label, Trace: tr, Period: period}, nil
}

// Power replays the trace cyclically; the gap between the trace end
// and the period (if any) holds the trace's last value.
func (w *TraceWorkload) Power(t float64) float64 {
	pos := t - w.Trace.Start
	pos = pos - float64(int(pos/w.Period))*w.Period
	if pos < 0 {
		pos += w.Period
	}
	return w.Trace.At(w.Trace.Start + pos)
}

// Name implements Workload.
func (w *TraceWorkload) Name() string { return w.Label }

// FuncWorkload adapts a plain function to the Workload interface.
type FuncWorkload struct {
	Label string
	Fn    func(t float64) float64
}

// Power implements Workload.
func (w FuncWorkload) Power(t float64) float64 { return w.Fn(t) }

// Name implements Workload.
func (w FuncWorkload) Name() string { return w.Label }

// sameWorkload reports whether two workload slots hold the identical
// workload value, guarding against uncomparable dynamic types (e.g.
// FuncWorkload, whose func field makes == panic). The sessions use it
// to evaluate a power waveform shared by several cores only once per
// step — or, for a workload with Hold, once per hold: its aliases copy
// the held sample too. FuncWorkload is deliberately never
// deduplicated, since an arbitrary Fn need not be pure.
func sameWorkload(a, b Workload) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	return ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}
