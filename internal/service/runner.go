package service

import (
	"context"
	"fmt"
	"sync"

	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/guardband"
	"voltnoise/internal/noise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/progress"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/vmin"
)

// Runner executes a normalized request and returns the study payload
// (one of the *Result types). Implementations must be safe for
// concurrent use and deterministic: the same normalized request must
// always produce a payload that marshals to the same bytes.
type Runner interface {
	Run(ctx context.Context, req *Request) (any, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(ctx context.Context, req *Request) (any, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, req *Request) (any, error) { return f(ctx, req) }

// LabRunner is the production Runner: it lazily builds one
// characterization lab per search class (quick / full) on the
// calibrated platform and runs every study against it. Labs are
// expensive to construct (the stressmark search) and read-only once
// built, so they are shared by all concurrent jobs; no study mutates
// the lab's platform.
type LabRunner struct {
	mu   sync.Mutex
	labs map[bool]*noise.Lab // keyed by Quick
}

// NewLabRunner returns a runner on the calibrated default platform.
func NewLabRunner() *LabRunner {
	return &LabRunner{labs: make(map[bool]*noise.Lab)}
}

// searchConfig selects the facade's default or quick search preset.
func searchConfig(quick bool) stressmark.SearchConfig {
	if quick {
		return stressmark.QuickSearchConfig()
	}
	return stressmark.DefaultSearchConfig()
}

// lab returns the shared lab for the search class, building it on
// first use.
func (r *LabRunner) lab(quick bool) (*noise.Lab, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l, ok := r.labs[quick]; ok {
		return l, nil
	}
	plat, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l, err := noise.New(plat, noise.WithSearch(searchConfig(quick)))
	if err != nil {
		return nil, err
	}
	r.labs[quick] = l
	return l, nil
}

// jobLab returns a shallow per-job copy of the shared lab with the
// request's scheduling knobs applied, so concurrent jobs never race
// on the Workers/Batch fields.
func (r *LabRunner) jobLab(req *Request) (*noise.Lab, error) {
	shared, err := r.lab(req.Quick)
	if err != nil {
		return nil, err
	}
	l := *shared
	l.Workers = req.Workers
	l.Batch = req.Batch
	return &l, nil
}

// Run implements Runner for every supported study.
func (r *LabRunner) Run(ctx context.Context, req *Request) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch req.Study {
	case StudyFreqSweep:
		return r.runFreqSweep(ctx, req)
	case StudyVminWalk:
		return r.runVminWalk(ctx, req)
	case StudyEPIProfile:
		return runEPIProfile(ctx, req)
	case StudyGuardband:
		return r.runGuardband(ctx, req)
	case StudyPopulation:
		return runPopulation(ctx, req)
	default:
		return nil, fmt.Errorf("service: unknown study %q", req.Study)
	}
}

// The per-study sink adapters below bridge the two progress layers:
// the studies emit their own partial types (noise.ChunkResult,
// vmin.StepEvent, …) from the ordered reduction, and the adapters
// convert each into the wire partial the stream documents. A sweep
// point goes through freqSweepPoint on both the stream and the blob
// path; the other partials carry raw measurements, and AssembleResult
// reduces them with the same library fold and converter the runner
// uses, so stream-assembled results stay byte-identical to the blob.
// A nil context sink leaves the study's Progress nil and costs
// nothing.

// freqSweepSink converts raw measurement chunks into FreqSweepPartial
// events carrying finished sweep points at their original indices.
func freqSweepSink(sink progress.Sink, freqs []float64) progress.Sink {
	return func(e progress.Event) {
		cr, ok := e.Payload.(noise.ChunkResult)
		if !ok {
			return
		}
		p := FreqSweepPartial{Points: make([]IndexedFreqPoint, len(cr.Jobs))}
		for k, ji := range cr.Jobs {
			pt := noise.FreqPoint{Freq: freqs[ji], P2P: cr.Measurements[k].P2P}
			p.Points[k] = IndexedFreqPoint{Index: ji, Point: freqSweepPoint(pt)}
		}
		e.Payload = p
		sink.Emit(e)
	}
}

// vminSink converts reduced bias steps into VminStepPartial events.
func vminSink(sink progress.Sink) progress.Sink {
	return func(e progress.Event) {
		se, ok := e.Payload.(vmin.StepEvent)
		if !ok {
			return
		}
		e.Payload = VminStepPartial{Step: e.Done, Bias: se.Bias, MinV: se.MinV}
		sink.Emit(e)
	}
}

// epiSink converts profiled instruction chunks into EPIProfilePartial
// events.
func epiSink(sink progress.Sink) progress.Sink {
	return func(e progress.Event) {
		ce, ok := e.Payload.(epi.ChunkEntries)
		if !ok {
			return
		}
		p := EPIProfilePartial{Start: ce.Start, End: ce.End, Entries: make([]EPIPartialEntry, len(ce.Entries))}
		for i, en := range ce.Entries {
			p.Entries[i] = EPIPartialEntry{
				Mnemonic:   en.Instr.Mnemonic,
				Unit:       en.Instr.Unit.String(),
				PowerWatts: en.PowerWatts,
				IPC:        en.IPC,
			}
		}
		e.Payload = p
		sink.Emit(e)
	}
}

// populationSink converts per-batch chip summaries into
// PopulationPartial events.
func populationSink(sink progress.Sink) progress.Sink {
	return func(e progress.Event) {
		chips, ok := e.Payload.([]population.ChipSummary)
		if !ok {
			return
		}
		e.Payload = PopulationPartial{Chips: chips}
		sink.Emit(e)
	}
}

func (r *LabRunner) runFreqSweep(ctx context.Context, req *Request) (any, error) {
	p := req.FreqSweep
	l, err := r.jobLab(req)
	if err != nil {
		return nil, err
	}
	freqs := pdn.LogSpace(p.LoHz, p.HiHz, p.Points)
	if sink := progress.FromContext(ctx); sink != nil {
		l.Progress = freqSweepSink(sink, freqs)
	}
	pts, err := l.FrequencySweep(ctx, freqs, p.Sync, p.Events)
	if err != nil {
		return nil, err
	}
	res := &FreqSweepResult{Sync: p.Sync, Events: p.Events, Points: make([]FreqSweepPoint, len(pts))}
	for i, pt := range pts {
		res.Points[i] = freqSweepPoint(pt)
	}
	return res, nil
}

func (r *LabRunner) runVminWalk(ctx context.Context, req *Request) (any, error) {
	p := req.VminWalk
	l, err := r.jobLab(req)
	if err != nil {
		return nil, err
	}
	vcfg := p.config(req.Workers, req.Batch)
	if sink := progress.FromContext(ctx); sink != nil {
		vcfg.Progress = vminSink(sink)
	}
	pts, err := l.ConsecutiveEventStudy(ctx, []float64{p.FreqHz}, []int{p.Events}, vcfg)
	if err != nil {
		return nil, err
	}
	return vminWalkResult(p, pts[0].Failed, pts[0].MarginPercent), nil
}

func runEPIProfile(ctx context.Context, req *Request) (any, error) {
	p := req.EPIProfile
	cfg := epi.DefaultConfig()
	cfg.MeasureCycles = p.MeasureCycles
	cfg.WarmupCycles = p.WarmupCycles
	cfg.Workers = req.Workers
	cfg.Batch = req.Batch
	if sink := progress.FromContext(ctx); sink != nil {
		cfg.Progress = epiSink(sink)
	}
	prof, err := epi.Generate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return epiProfileResult(prof, p.TopN), nil
}

// runPopulation needs no lab (there is no stressmark search — the ΔI
// stimulus is the C-state exit itself), so it runs straight against
// the population engine. Every platform it builds is per-request and
// dropped afterwards: fleets are parameterized too widely to share
// lab-style state across jobs. The payload is the library's
// population.Result itself: fleet-wide droop, Vmin and guard-band
// distributions with a per-core-class breakdown. Its BatchedChunks
// field carries a json:"-" tag, so payload bytes stay independent of
// the workers/batch schedule.
func runPopulation(ctx context.Context, req *Request) (any, error) {
	cfg := req.Population.config(req.Workers, req.Batch)
	if sink := progress.FromContext(ctx); sink != nil {
		cfg.Progress = populationSink(sink)
	}
	res, err := population.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *LabRunner) runGuardband(ctx context.Context, req *Request) (any, error) {
	p := req.Guardband
	var droops [core.NumCores + 1]float64
	if len(p.Droops) > 0 {
		copy(droops[:], p.Droops)
	} else {
		l, err := r.jobLab(req)
		if err != nil {
			return nil, err
		}
		runs, err := l.MappingStudy(ctx, p.FreqHz, p.Events, false)
		if err != nil {
			return nil, err
		}
		droops = noise.WorstDroops(runs, l.Platform.NominalVoltage())
	}
	table, err := guardband.FromDroops(droops, p.SafetyPercent)
	if err != nil {
		return nil, err
	}
	ctrl, err := guardband.NewController(table)
	if err != nil {
		return nil, err
	}
	res := &GuardbandResult{MarginPercent: table.MarginPercent}
	for n := 0; n <= core.NumCores; n++ {
		bias, err := ctrl.SetActiveCores(n)
		if err != nil {
			return nil, err
		}
		res.Bias[n] = bias
	}
	trace := make([]guardband.UtilizationPhase, len(p.Trace))
	for i, ph := range p.Trace {
		trace[i] = guardband.UtilizationPhase{ActiveCores: ph.ActiveCores, Duration: ph.DurationS}
	}
	s, err := guardband.Replay(ctrl, trace)
	if err != nil {
		return nil, err
	}
	res.MeanBias = s.MeanBias
	res.EnergySavedPercent = s.EnergySavedPercent
	res.TotalTimeS = s.TotalTime
	return res, nil
}
