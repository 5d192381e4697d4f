package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"voltnoise/internal/core"
	"voltnoise/internal/noise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/progress"
	"voltnoise/internal/stressmark"
)

// poolSize is how many distinct seeded inputs a library workload
// cycles through. Every op's output is compared with the first output
// of the same input, and the first input once against the lane-per-run
// reference after the window.
const poolSize = 4

// Sizes of the library workloads' operations.
const (
	sweepPoints = 32
	sweepEvents = 200

	resonanceCoarse = 8
	resonanceTol    = 0.05

	fleetChips  = 240
	fleetAge    = 5
	fleetTech   = 22
	fleetExitHz = 2e6
	fleetWarmup = 4e-6
	fleetBins   = 8
)

// resonanceWindow is the measurement window FindResonance gives every
// run: free-running marks are measured over 4 stimulus periods clamped
// to at least 60 us, and every frequency the search probes lies above
// 66.7 kHz, where the clamp applies.
const resonanceWindow = 60e-6

// steps is the lane-steps one lane advances through a window after the
// given warmup, at the platform's timestep.
func steps(warmup, window float64) int64 {
	return int64(math.Round((warmup + window) / core.DefaultConfig().Dt))
}

// outputs remembers each pool input's first output digest, so a later
// op on the same input must reproduce it byte for byte.
type outputs struct {
	mu      sync.Mutex
	digests [poolSize]string
}

// check records or compares the digest of input i.
func (o *outputs) check(i int, b []byte) error {
	d := sha(b)
	o.mu.Lock()
	defer o.mu.Unlock()
	switch o.digests[i] {
	case "":
		o.digests[i] = d
	case d:
	default:
		return fmt.Errorf("input %d: output %s differs from the first run's %s", i, d[:12], o.digests[i][:12])
	}
	return nil
}

// verify compares the first input's output with ref, its reference
// output, and returns the combined digest of every input in pool order.
func (o *outputs) verify(ref func() ([]byte, error)) (checked, failed int, digest string, err error) {
	for i, d := range o.digests {
		if d == "" {
			return 0, 0, "", fmt.Errorf("input %d never ran", i)
		}
	}
	b, err := ref()
	if err != nil {
		return 0, 0, "", fmt.Errorf("reference: %w", err)
	}
	if sha(b) != o.digests[0] {
		failed = 1
	}
	return 1, failed, combine(o.digests[:]), nil
}

// newLab builds the quick-search lab every noise workload runs on.
func newLab(workers, batch int) (*noise.Lab, error) {
	plat, err := core.New(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return noise.New(plat, noise.WithSearch(stressmark.QuickSearchConfig()),
		noise.WithWorkers(workers), noise.WithBatch(batch))
}

// sweepWorkload runs synchronized frequency sweeps. Most of its time
// is wide 8/16-lane pdn steps, with exec stealing batches across both
// workers.
type sweepWorkload struct {
	env    *env
	inputs [poolSize][]float64
	lab    *noise.Lab
	out    outputs
}

func newSweep(e *env) workload {
	w := &sweepWorkload{env: e}
	for i := range w.inputs {
		// Below 3.33 MHz a 200-event burst outlasts the 60 us window cap,
		// so every point, whatever the seed, measures the same window and
		// costs the same.
		r := e.rng(uint64(i))
		lo := 100e3 * (0.9 + 0.2*r.Float64())
		hi := 3e6 * (1 + 0.1*r.Float64())
		w.inputs[i] = pdn.LogSpace(lo, hi, sweepPoints)
	}
	return w
}

func (w *sweepWorkload) clients() int { return 1 }
func (w *sweepWorkload) minOps() int  { return poolSize }

func (w *sweepWorkload) setup(ctx context.Context) error {
	lab, err := newLab(0, 0)
	if err != nil {
		return err
	}
	w.lab = lab
	// The warm-up op calibrates the session pool's lane width.
	_, err = w.sweep(ctx, w.lab, w.inputs[0], nil)
	return err
}

func (w *sweepWorkload) sweep(ctx context.Context, lab *noise.Lab, freqs []float64, sink progress.Sink) ([]byte, error) {
	l := *lab
	l.Progress = sink
	pts, err := l.FrequencySweep(ctx, freqs, true, sweepEvents)
	if err != nil {
		return nil, err
	}
	return json.Marshal(pts)
}

func (w *sweepWorkload) op(ctx context.Context, c call) opStat {
	i := c.k % poolSize
	st := opStat{laneSteps: map[int]int64{}}
	rec := w.env.recorder()
	t0 := time.Now()
	sp := rec.startAt("noise.Lab.FrequencySweep", 0, c.id, t0)
	b, err := w.sweep(ctx, w.lab, w.inputs[i], func(e progress.Event) {
		cr := e.Payload.(noise.ChunkResult)
		var window float64
		for _, m := range cr.Measurements {
			window = max(window, m.Duration)
		}
		n := int64(len(cr.Jobs)) * steps(core.DefaultWarmup, window)
		st.mark(t0, len(cr.Jobs))
		st.laneSteps[len(cr.Jobs)] += n
		// Aligned synchronized copies share one workload, evaluated once
		// per lane-step.
		st.powerEvals += n
		rec.startAt("exec.chunk", sp.id(), c.id, time.Now()).end()
	})
	sp.end()
	st.finish(t0)
	if err == nil {
		err = w.out.check(i, b)
	}
	st.err = err
	return st
}

func (w *sweepWorkload) verify(ctx context.Context) (int, int, string, error) {
	ref := *w.lab
	ref.Workers, ref.Batch = 1, 1
	return w.out.verify(func() ([]byte, error) { return w.sweep(ctx, &ref, w.inputs[0], nil) })
}

func (w *sweepWorkload) autoWidth() int { return w.lab.Platform.Sessions().AutoBatchWidth() }
func (w *sweepWorkload) close()         {}

// resonanceWorkload runs automated resonance searches: sixteen or so
// sequential single-lane runs per op, latency-bound on the width-1
// Transient/Session path with no batching or parallelism.
type resonanceWorkload struct {
	env    *env
	inputs [poolSize][2]float64
	lab    *noise.Lab
	out    outputs
}

func newResonance(e *env) workload {
	w := &resonanceWorkload{env: e}
	for i := range w.inputs {
		// A fixed hi/lo ratio keeps the search's coarse grid, and so its
		// run count, the same for every input.
		lo := 0.5e6 * (0.8 + 0.4*e.rng(uint64(i)).Float64())
		w.inputs[i] = [2]float64{lo, 10 * lo}
	}
	return w
}

func (w *resonanceWorkload) clients() int { return 1 }
func (w *resonanceWorkload) minOps() int  { return poolSize }

func (w *resonanceWorkload) setup(ctx context.Context) error {
	lab, err := newLab(0, 0)
	if err != nil {
		return err
	}
	w.lab = lab
	_, _, err = w.find(ctx, lab, 0)
	return err
}

func (w *resonanceWorkload) find(ctx context.Context, lab *noise.Lab, i int) ([]byte, int, error) {
	f, p2p, runs, err := lab.FindResonance(ctx, w.inputs[i][0], w.inputs[i][1], resonanceCoarse, resonanceTol)
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(struct {
		Freq, P2P float64
		Runs      int
	}{f, p2p, runs})
	return b, runs, err
}

func (w *resonanceWorkload) op(ctx context.Context, c call) opStat {
	i := c.k % poolSize
	t0 := time.Now()
	sp := w.env.recorder().startAt("noise.Lab.FindResonance", 0, c.id, t0)
	b, runs, err := w.find(ctx, w.lab, i)
	sp.end()
	n := int64(runs) * steps(core.DefaultWarmup, resonanceWindow)
	// Free-running copies carry per-core phases: six evaluations per
	// lane-step.
	st := opStat{runs: runs, laneSteps: map[int]int64{1: n}, powerEvals: core.NumCores * n}
	st.finish(t0)
	if err == nil {
		err = w.out.check(i, b)
	}
	st.err = err
	return st
}

// verify reruns the first input on a fresh platform, so no pooled
// session carries over from the measured ops.
func (w *resonanceWorkload) verify(ctx context.Context) (int, int, string, error) {
	ref, err := newLab(1, 1)
	if err != nil {
		return 0, 0, "", err
	}
	return w.out.verify(func() ([]byte, error) {
		b, _, err := w.find(ctx, ref, 0)
		return b, err
	})
}

func (w *resonanceWorkload) autoWidth() int { return w.lab.Platform.Sessions().AutoBatchWidth() }
func (w *resonanceWorkload) close()         {}

// fleetWorkload runs population studies. Each op pays per-bin platform
// construction, factorization and width calibration; bins leave
// remainder chunks on the generic-width solve; the loads are C-state
// exits rather than stressmarks; and population.Fold runs at the end.
type fleetWorkload struct {
	env    *env
	inputs [poolSize]uint64
	out    outputs
}

func newFleet(e *env) workload {
	w := &fleetWorkload{env: e}
	for i := range w.inputs {
		w.inputs[i] = e.rng(uint64(i)).Uint64()
	}
	return w
}

// fleetConfig is the study the fleet workload runs for a population seed.
// It runs on one worker: the batches, their widths and the result are
// the same at any worker count, and the exec scheduler's stealing is
// sweep's to measure. With a worker per vCPU the op waits on whichever
// vCPU the host slows, and the run-to-run spread of op_p50_ms was 0.14
// on two workers against 0.04-0.09 on one.
func fleetConfig(seed uint64) population.Config {
	cfg := population.DefaultConfig()
	cfg.Workers = 1
	cfg.Chips = fleetChips
	cfg.AgeYears = fleetAge
	cfg.Mix = [core.NumCores]string{"o3", "io", "o3", "io", "o3", "io"}
	cfg.TechNode = fleetTech
	cfg.ExitHz = fleetExitHz
	cfg.WarmupS = fleetWarmup
	cfg.RLCBins = fleetBins
	cfg.Seed = seed
	return cfg
}

func (w *fleetWorkload) clients() int { return 1 }
func (w *fleetWorkload) minOps() int  { return poolSize }

func (w *fleetWorkload) setup(ctx context.Context) error {
	_, err := population.Run(ctx, fleetConfig(w.inputs[0]))
	return err
}

func (w *fleetWorkload) op(ctx context.Context, c call) opStat {
	i := c.k % poolSize
	cfg := fleetConfig(w.inputs[i])
	st := opStat{chips: cfg.Chips, laneSteps: map[int]int64{}}
	rec := w.env.recorder()
	t0 := time.Now()
	sp := rec.startAt("population.Run", 0, c.id, t0)
	perChip := steps(cfg.WarmupS, 2/cfg.ExitHz)
	cfg.Progress = func(e progress.Event) {
		n := len(e.Payload.([]population.ChipSummary))
		st.mark(t0, n)
		st.laneSteps[n] += int64(n) * perChip
		rec.startAt("exec.chunk", sp.id(), c.id, time.Now()).end()
	}
	res, err := population.Run(ctx, cfg)
	sp.end()
	st.finish(t0)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(res); err == nil {
			err = w.out.check(i, b)
		}
	}
	st.err = err
	return st
}

func (w *fleetWorkload) verify(ctx context.Context) (int, int, string, error) {
	return w.out.verify(func() ([]byte, error) {
		cfg := fleetConfig(w.inputs[0])
		cfg.Workers, cfg.Batch = 1, 1
		res, err := population.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	})
}

func (w *fleetWorkload) autoWidth() int { return freshAutoWidth() }
func (w *fleetWorkload) close()         {}

// freshAutoWidth calibrates a new session pool on the default platform
// and returns the lane width it picks.
func freshAutoWidth() int {
	return core.NewSessionPool(core.DefaultConfig()).AutoBatchWidth()
}
