// Package noise is the experiment harness: it drives the simulated
// platform through every characterization study of the paper's
// Sections V and VI (noise sensitivity to stimulus frequency,
// alignment, misalignment, ΔI magnitude, consecutive-event count, and
// inter-core propagation) and returns the data series behind each
// figure.
package noise

import (
	"context"
	"fmt"

	"voltnoise/internal/core"
	"voltnoise/internal/exec"
	"voltnoise/internal/isa"
	"voltnoise/internal/pdn"
	"voltnoise/internal/progress"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
	"voltnoise/internal/uarch"
)

// Lab bundles a platform with the discovered stressmark building
// blocks; every experiment below runs against it.
type Lab struct {
	// Platform is the system under test.
	Platform *core.Platform
	// Search echoes the sequence-search configuration used.
	Search stressmark.SearchConfig
	// MaxSeq, MedSeq and MinSeq are the maximum-, medium- and
	// minimum-power sequences (the medium consumes the average of the
	// extremes, as in the paper's ΔI study).
	MaxSeq, MedSeq, MinSeq *uarch.Program
	// SearchFunnel records the search pipeline counts.
	SearchFunnel *stressmark.SearchResult
	// Workers caps the concurrent measurement workers the parallel
	// studies (FrequencySweep, MisalignmentSweep, MappingStudy,
	// ConsecutiveEventStudy, MappingOpportunity, Sensitivity, and each
	// round of FindResonance) fan out to. Zero selects one worker per
	// CPU; one forces the serial path. Results are bit-identical for
	// every setting — the engine reduces in item order (see
	// internal/exec).
	Workers int
	// Batch is the lane width of the lockstep batch engine: studies
	// pack measurement runs sharing a window into lanes of one
	// core.BatchSession, amortizing the step-plan walk and turning the
	// per-step solve into a multi-RHS substitution. Zero selects the
	// auto width, pdn.AutoBatchLanes: 16 lanes where the AVX2
	// substitution bodies run, 8 on the pure-Go bodies, the faster per
	// lane-step on each. One runs one measurement per width-1 session.
	// When the auto width would cut a study into fewer batches than
	// workers, it drops to ceil(jobs / workers) so every worker gets a
	// batch (see exec.BatchWidthAuto for the measured reason); an
	// explicit width is never split. Workers contend for whole batches
	// by work stealing (exec.MapStolen). Results are bit-identical for
	// every width — a lane's arithmetic does not depend on the width.
	Batch int
	// Progress, when set, receives one ChunkResult per reduced
	// measurement chunk of every study that measures through
	// runMeasurements: FrequencySweep, MisalignmentSweep, MappingStudy,
	// MappingOpportunity, Sensitivity, Waveform, RunWorstMark and each
	// round of FindResonance. Events fire from the ordered-reduction
	// side of the scheduler in batch order (see ChunkResult), so the
	// stream is a pure function of the study, Batch and Workers: Batch
	// sets the chunking and, under the auto width, Workers can split
	// it; no setting reorders the jobs. The assembled results never
	// change.
	Progress progress.Sink
}

// Option configures New.
type Option func(*labOptions)

type labOptions struct {
	search  stressmark.SearchConfig
	workers int
	batch   int
}

// WithSearch selects the stressmark sequence-search configuration
// (default: stressmark.DefaultSearchConfig, the paper-sized search).
func WithSearch(scfg stressmark.SearchConfig) Option {
	return func(o *labOptions) { o.search = scfg }
}

// WithWorkers caps the concurrent measurement workers of the parallel
// studies (see Lab.Workers).
func WithWorkers(n int) Option {
	return func(o *labOptions) { o.workers = n }
}

// WithBatch sets the lockstep lane width of the batched studies (see
// Lab.Batch).
func WithBatch(n int) Option {
	return func(o *labOptions) { o.batch = n }
}

// New builds a lab on the given platform: runs the maximum-power
// sequence search and derives the medium and minimum sequences. It is
// the option-taking constructor behind the facade's NewLab.
func New(plat *core.Platform, opts ...Option) (*Lab, error) {
	o := labOptions{search: stressmark.DefaultSearchConfig()}
	for _, f := range opts {
		f(&o)
	}
	res, err := stressmark.FindMaxPowerSequence(o.search)
	if err != nil {
		return nil, err
	}
	min := stressmark.MinPowerSequence(o.search)
	target := (o.search.Core.Power(res.Best) + o.search.Core.Power(min)) / 2
	med, err := stressmark.SequenceWithPower(o.search, res.Best, target, 0.5)
	if err != nil {
		return nil, err
	}
	return &Lab{
		Platform:     plat,
		Search:       o.search,
		MaxSeq:       res.Best,
		MedSeq:       med,
		MinSeq:       min,
		SearchFunnel: res,
		Workers:      o.workers,
		Batch:        o.batch,
	}, nil
}

// table returns the ISA table in use.
func (l *Lab) table() *isa.Table { return l.Search.Table }

// MaxSpec returns the maximum dI/dt stressmark spec at the given
// stimulus frequency (free-running).
func (l *Lab) MaxSpec(freq float64) stressmark.Spec {
	return stressmark.Spec{
		HighSeq:      l.MaxSeq,
		LowSeq:       l.MinSeq,
		StimulusFreq: freq,
		Duty:         0.5,
	}
}

// MedSpec returns the medium dI/dt stressmark spec (half the ΔI of
// MaxSpec) at the given stimulus frequency.
func (l *Lab) MedSpec(freq float64) stressmark.Spec {
	s := l.MaxSpec(freq)
	s.HighSeq = l.MedSeq
	return s
}

// syncSpec gates a spec into TOD-synchronized bursts. Event counts
// that do not fit the sync period are clamped (the paper's 1000-event
// bursts fit only at high stimulus frequencies).
func syncSpec(s stressmark.Spec, events int) stressmark.Spec {
	cond := tod.DefaultSync()
	s.Sync = &cond
	maxEvents := int(cond.Period() * 0.9 * s.StimulusFreq)
	if maxEvents < 1 {
		maxEvents = 1
	}
	if events > maxEvents {
		events = maxEvents
	}
	s.Events = events
	return s
}

// measureWindow picks the measurement window for a spec: synchronized
// marks are measured around the burst at the TOD origin; free-running
// marks over a few stimulus periods. Bounds keep every run tractable.
func measureWindow(s stressmark.Spec) (start, dur float64) {
	if s.Sync != nil {
		burst := float64(s.Events) / s.StimulusFreq
		if burst > 60e-6 {
			burst = 60e-6
		}
		return -10e-6, burst + 40e-6
	}
	dur = 4 / s.StimulusFreq
	if dur < 60e-6 {
		dur = 60e-6
	}
	if dur > 500e-6 {
		dur = 500e-6
	}
	return 0, dur
}

// measJob is one measurement a batched study wants taken: the
// workloads plus the measurement window.
type measJob struct {
	wl     [core.NumCores]core.Workload
	start  float64
	dur    float64
	record bool
}

func (j measJob) spec() core.RunSpec {
	return core.RunSpec{Workloads: j.wl, Start: j.start, Duration: j.dur, Record: j.record}
}

// specJob builds the measurement job for a spec over its default
// window, instantiating one stressmark copy per core.
func (l *Lab) specJob(s stressmark.Spec, offsets *[core.NumCores]uint64) (measJob, error) {
	cfg := l.Platform.Config()
	var (
		wl  [core.NumCores]core.Workload
		err error
	)
	if s.Sync != nil {
		wl, err = stressmark.SyncWorkloads(s, cfg.Core, l.table(), offsets)
	} else {
		if offsets != nil {
			return measJob{}, fmt.Errorf("noise: offsets require a synchronized spec")
		}
		wl, err = stressmark.UnsyncWorkloads(s, cfg.Core, l.table())
	}
	if err != nil {
		return measJob{}, err
	}
	start, dur := measureWindow(s)
	return measJob{wl: wl, start: start, dur: dur}, nil
}

// ChunkResult is the Progress payload runMeasurements emits per
// reduced chunk: the job indices the chunk covered and their
// measurements, aligned one to one. Each chunk is one batch, and
// chunks arrive in batch order: each window group of the jobs, in
// first-appearance order, cut into consecutive runs of the lane width.
// When the jobs share one window, as in every sweep, that is job
// order.
type ChunkResult struct {
	Jobs         []int
	Measurements []*core.Measurement
}

// runMeasurements executes the jobs and returns one measurement per
// job, in job order. It is the one path by which the lab's studies
// take measurements (the Vmin margin studies step through vmin.Run
// instead). Jobs sharing a measurement window are packed into the
// lanes of lockstep batch sessions (width exec.BatchWidthAuto of
// l.Batch and l.Workers; batch 1 packs one job per batch), and the
// batches fan out across l.Workers in batch order. Each batch runs at
// the platform's bias on a session borrowed from its pool, which
// amortizes circuit construction and matrix factorization across the
// whole study; a worker holds its own session, and canceling ctx
// interrupts it. A lane's arithmetic does not depend on the width, so
// the results are bit-identical at every (workers, batch)
// combination. When l.Progress is set, each reduced chunk additionally
// emits a ChunkResult from the ordered-reduction side.
func (l *Lab) runMeasurements(ctx context.Context, jobs []measJob) ([]*core.Measurement, error) {
	width := exec.BatchWidthAuto(l.Batch, len(jobs), l.Workers, pdn.AutoBatchLanes())
	// Group jobs by warmup window — lockstep lanes must share Start and
	// Warmup, while each lane observes only its own Duration — in
	// first-appearance order, then cut each group into width-sized
	// batches.
	type wkey struct{ start float64 }
	groupIdx := map[wkey]int{}
	var groups [][]int
	for i, j := range jobs {
		k := wkey{j.start}
		gi, ok := groupIdx[k]
		if !ok {
			gi = len(groups)
			groupIdx[k] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	var batches [][]int
	for _, g := range groups {
		for _, r := range exec.Chunks(len(g), width) {
			batches = append(batches, g[r[0]:r[1]])
		}
	}
	out := make([]*core.Measurement, len(jobs))
	pool := l.Platform.Sessions()
	done := 0
	// Each batch is one whole lockstep chunk: workers own contiguous
	// runs of batches and steal whole batches when idle, never lanes.
	err := exec.MapStolen(ctx, len(batches), 1, l.Workers,
		func(ctx context.Context, bi, _ int) ([]*core.Measurement, error) {
			specs := make([]core.RunSpec, len(batches[bi]))
			for k, ji := range batches[bi] {
				specs[k] = jobs[ji].spec()
			}
			bs, err := pool.GetBatch(l.Platform.VoltageBias(), len(specs))
			if err != nil {
				return nil, err
			}
			defer pool.PutBatch(bs)
			return bs.RunBatchContext(ctx, specs)
		},
		func(ci, bi, _ int, ms []*core.Measurement) error {
			for k, ji := range batches[bi] {
				out[ji] = ms[k]
			}
			done++
			l.Progress.Emit(progress.Event{
				Chunk: ci, Done: done, Total: len(batches),
				Payload: ChunkResult{Jobs: batches[bi], Measurements: ms},
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ImpedanceProfile computes the PDN impedance profile at a core node
// (the paper's Figure 7b companion to the frequency sweep).
func (l *Lab) ImpedanceProfile(freqs []float64) ([]pdn.ImpedancePoint, error) {
	circuit, nodes := pdn.ZEC12(l.Platform.Config().PDN)
	return circuit.ImpedanceProfile(nodes.Core[0], freqs)
}

// RunWorstMark measures the unsynchronized maximum stressmark at the
// droop resonance — the baseline the application suite is validated
// against.
func (l *Lab) RunWorstMark() (float64, error) {
	j, err := l.specJob(l.MaxSpec(2e6), nil)
	if err != nil {
		return 0, err
	}
	ms, err := l.runMeasurements(context.Background(), []measJob{j})
	if err != nil {
		return 0, err
	}
	w, _ := ms[0].WorstP2P()
	return w, nil
}
