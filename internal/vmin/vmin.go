// Package vmin implements Vmin experiments: the paper's "ultimate
// bullet-proof method to check the available voltage margin". The
// operating voltage is lowered in the service element's 0.5% steps
// until the first failure, detected here by a critical-path timing
// model: a core fails when its supply dips below the voltage at which
// the critical path no longer closes at the operating frequency (the
// event the R-Unit would catch and recover on real hardware).
package vmin

import (
	"context"
	"fmt"

	"voltnoise/internal/core"
	"voltnoise/internal/exec"
	"voltnoise/internal/pdn"
	"voltnoise/internal/progress"
)

// DefaultFailVoltage is the calibrated critical-path failure threshold
// in volts: the deepest momentary supply the modelled core tolerates
// at 5.5 GHz. With the calibrated platform it reproduces the paper's
// Figure 12 margin bands: synchronized stressmarks fail within ~0-2%
// of nominal, unsynchronized ones leave 5-7%.
const DefaultFailVoltage = 0.875

// Window is one measurement window per bias step. Experiments choose
// windows that cover the workload's noisiest episodes (e.g. a
// synchronized burst onset).
type Window struct {
	Start, Duration float64
}

// Config parameterizes a Vmin experiment.
type Config struct {
	// FailVoltage is the critical-path threshold.
	FailVoltage float64
	// StartBias is the first (highest) bias probed.
	StartBias float64
	// MinBias bounds the search from below.
	MinBias float64
	// Windows are the measurement windows checked at each step.
	Windows []Window
	// Workers caps the concurrent bias-step workers. Zero selects one
	// worker per CPU; one forces the serial walk. Each chunk of steps
	// runs on its own pooled batch session, and the failure scan
	// reduces in descending-bias order, so the result is bit-identical
	// for every setting (parallel runs may probe a few steps past the
	// failure and discard them).
	Workers int
	// Batch is the lockstep lane width: consecutive bias steps pack
	// into the lanes of one batch session — per-lane fixed supplies
	// let one factored circuit probe several biases per step walk.
	// Zero selects the auto width, pdn.AutoBatchLanes: 16 lanes where
	// the AVX2 substitution bodies run, 8 on the pure-Go bodies, the
	// faster per lane-step on each. One runs one step per width-1
	// session. Unlike the noise studies, the walk never splits the
	// auto width to feed idle workers: for a 17-step walk on two
	// workers, 9+8 lanes measured no faster than 16+1, so the auto
	// width stands. Workers contend for whole chunks by work
	// stealing (exec.MapStolen). Like Workers, every setting is
	// bit-identical: a lane's arithmetic does not depend on the width,
	// and the reduction stays in descending-bias order.
	Batch int
	// Progress, when set, receives one StepEvent per reduced bias lane,
	// in descending-bias order — including the failing step, which is
	// the last one emitted. The stream is deterministic at every
	// (Workers, Batch) setting because the reduction is.
	Progress progress.Sink
}

// StepEvent is the Progress payload emitted per reduced bias step.
type StepEvent struct {
	// Bias is the quantized bias the step actually applied.
	Bias float64
	// MinV is the deepest supply excursion observed across the step's
	// measurement windows.
	MinV float64
}

// DefaultConfig returns the standard experiment setup for workloads
// whose noisy episode starts at t=0 (synchronized bursts at the TOD
// origin) and for free-running marks.
func DefaultConfig() Config {
	return Config{
		FailVoltage: DefaultFailVoltage,
		StartBias:   1.0,
		MinBias:     0.80,
		Windows: []Window{
			{Start: -10e-6, Duration: 60e-6},
		},
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.FailVoltage <= 0:
		return fmt.Errorf("vmin: non-positive fail voltage %g", c.FailVoltage)
	case c.StartBias <= c.MinBias:
		return fmt.Errorf("vmin: start bias %g must exceed min bias %g", c.StartBias, c.MinBias)
	case len(c.Windows) == 0:
		return fmt.Errorf("vmin: no measurement windows")
	}
	for _, w := range c.Windows {
		if w.Duration <= 0 {
			return fmt.Errorf("vmin: window with non-positive duration")
		}
	}
	return nil
}

// Result reports a Vmin experiment.
type Result struct {
	// Failed reports whether a failure was reached before MinBias.
	Failed bool
	// FailBias is the first bias at which a failure occurred (only
	// meaningful when Failed).
	FailBias float64
	// MarginPercent is the available margin: how far below nominal the
	// supply could go before first failure, in percent of nominal.
	// This is the paper's "amount of Vbias required to get the first
	// failure" (Figure 12's y-axis, before normalization).
	MarginPercent float64
	// Steps is the number of bias steps probed.
	Steps int
	// MinVoltageSeen is the deepest droop observed at the last safe
	// bias.
	MinVoltageSeen float64
}

// Run performs the experiment: starting at StartBias, lower the bias
// step by step ("0.5% every two minutes" on the real machine; the
// simulator is faster) and measure each window until a core's supply
// crosses the failure threshold.
//
// The steps of the grid are independent measurements, so they fan out
// across cfg.Workers, each chunk on a batch session drawn from the
// platform's pool — the circuit and its factored matrices are built
// once and reused across the whole descending walk (the nodal matrices
// do not depend on the bias). The reduction walks the steps in
// descending-bias order, stops at the first failure — exactly the
// serial schedule — and hands the steps to Fold, so Steps, FailBias
// and MarginPercent never depend on the worker count. Canceling ctx
// interrupts the walk mid-window. Run only reads p: every bias is probed on a pooled session's lanes,
// so p's own voltage bias stays wherever the caller set it.
func Run(ctx context.Context, p *core.Platform, workloads [core.NumCores]core.Workload, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sessions := p.Sessions()

	var biases []float64
	for bias := cfg.StartBias; bias >= cfg.MinBias-1e-9; bias -= core.BiasStep {
		biases = append(biases, bias)
	}
	// Pack consecutive bias steps into lockstep lanes: per-lane fixed
	// supplies probe several biases through one factored circuit, one
	// window walk per chunk. Workers contend for whole chunks by work
	// stealing; the reduction stays in descending-bias order. The width
	// is resolved as for one worker, so it is never split for workers
	// (see Config.Batch).
	var steps []StepEvent
	width := exec.BatchWidthAuto(cfg.Batch, len(biases), 1, pdn.AutoBatchLanes())
	err := exec.MapStolen(ctx, len(biases), width, cfg.Workers,
		func(ctx context.Context, start, end int) ([]StepEvent, error) {
			lanes := end - start
			bs, err := sessions.GetBatch(biases[start], lanes)
			if err != nil {
				return nil, err
			}
			defer sessions.PutBatch(bs)
			for l := 0; l < lanes; l++ {
				if err := bs.SetLaneBias(l, biases[start+l]); err != nil {
					return nil, err
				}
			}
			out := make([]StepEvent, lanes)
			for l := range out {
				out[l].MinV = 2.0
			}
			specs := make([]core.RunSpec, lanes)
			for _, w := range cfg.Windows {
				for l := range specs {
					specs[l] = core.RunSpec{Workloads: workloads, Start: w.Start, Duration: w.Duration}
				}
				ms, err := bs.RunBatchContext(ctx, specs)
				if err != nil {
					return nil, err
				}
				for l, m := range ms {
					if v := m.MinVoltage(); v < out[l].MinV {
						out[l].MinV = v
					}
				}
			}
			for l := range out {
				out[l].Bias = bs.LaneBias(l)
			}
			return out, nil
		},
		func(_, _, _ int, chunk []StepEvent) error {
			for _, s := range chunk {
				steps = append(steps, s)
				cfg.Progress.Emit(progress.Event{
					Chunk: len(steps) - 1, Done: len(steps), Total: len(biases),
					Payload: s,
				})
				if s.MinV < cfg.FailVoltage {
					return exec.ErrStop
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return Fold(cfg, steps), nil
}

// Fold reduces the probed bias steps, given in descending-bias order,
// to the experiment's result. The walk ends at the first step whose
// deepest supply crosses cfg.FailVoltage; steps after it are ignored.
// The margin is how far below nominal the last safe bias sat
// (cfg.StartBias when the first step fails), or the full range down to
// cfg.MinBias when no step fails. Run folds its walk with it, and so
// does anything that rebuilds the result from streamed StepEvents.
func Fold(cfg Config, steps []StepEvent) *Result {
	res := &Result{}
	lastSafe := cfg.StartBias
	for _, s := range steps {
		res.Steps++
		if s.MinV < cfg.FailVoltage {
			res.Failed = true
			res.FailBias = s.Bias
			res.MarginPercent = (1 - lastSafe) * 100
			return res
		}
		lastSafe = s.Bias
		res.MinVoltageSeen = s.MinV
	}
	res.MarginPercent = (1 - cfg.MinBias) * 100
	return res
}
