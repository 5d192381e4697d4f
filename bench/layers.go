package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"voltnoise/internal/core"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/progress"
	"voltnoise/internal/service/journal"
	"voltnoise/internal/skitter"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
)

// Layer replays call one layer's public API directly on fixed inputs,
// so each layer's cost is measured the same way in every workload.

// replayReps is how many timed blocks a replay takes. It reports the
// fastest: on a shared host the slower blocks measure the neighbours'
// interference, not the code.
const replayReps = 7

// replayLaneSteps is the lane-steps one timed engine block advances.
const replayLaneSteps = 40000

// widths are the lockstep widths every traced run replays: the
// single-lane engine, a generic width, and the two register-blocked
// kernels. The lane-step model replays any other width a workload ran.
var widths = []int{1, 3, pdn.DefaultBatchLanes, pdn.WideBatchLanes}

// sink keeps replayed results live so the compiler cannot drop the
// calls that produce them.
var sink float64

// block is one timed unit of a replay: fn does units of work.
type block struct {
	name  string
	units float64
	fn    func() error
}

// timeBlocks runs every block once untimed, then replayReps rounds of
// one timed block each, interleaved so that blocks whose costs are
// compared sample the same stretches of host time. Each timed block
// runs inside a span. It returns each block's fastest time per unit in
// ns.
func timeBlocks(rec *recorder, blocks ...block) ([]float64, error) {
	best := make([]float64, len(blocks))
	for i, b := range blocks {
		if err := b.fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", b.name, err)
		}
		best[i] = math.Inf(1)
	}
	for r := 0; r < replayReps; r++ {
		for i, b := range blocks {
			sp := rec.start(b.name, 0, 0)
			t0 := time.Now()
			if err := b.fn(); err != nil {
				return nil, fmt.Errorf("%s: %w", b.name, err)
			}
			best[i] = min(best[i], float64(time.Since(t0))/b.units)
			sp.end()
		}
	}
	return best, nil
}

// timeBlock is timeBlocks for a single block.
func timeBlock(rec *recorder, name string, units float64, fn func() error) (float64, error) {
	best, err := timeBlocks(rec, block{name, units, fn})
	if err != nil {
		return 0, err
	}
	return best[0], nil
}

// engine replays the lane-step engine at the widths asked of it,
// remembering each width's costs.
type engine struct {
	ctx  context.Context
	rec  *recorder
	cost map[int][2]float64 // width -> pdn step ns, core run ns per lane-step
}

func newEngine(ctx context.Context, rec *recorder) *engine {
	return &engine{ctx: ctx, rec: rec, cost: map[int][2]float64{}}
}

// at returns the pdn step and the whole session run, in ns per
// lane-step, at width w. The two are timed interleaved, since the
// core overhead is their difference.
func (e *engine) at(w int) (step, run float64, err error) {
	if c, ok := e.cost[w]; ok {
		return c[0], c[1], nil
	}
	cfg := core.DefaultConfig()
	pb, err := pdnStep(cfg, w)
	if err != nil {
		return 0, 0, err
	}
	cb, err := coreRun(e.ctx, cfg, w)
	if err != nil {
		return 0, 0, err
	}
	best, err := timeBlocks(e.rec, pb, cb)
	if err != nil {
		return 0, 0, err
	}
	e.cost[w] = [2]float64{best[0], best[1]}
	return best[0], best[1], nil
}

// replays runs every layer replay and returns its metrics.
func replays(ctx context.Context, e *env, eng *engine) (map[string]float64, error) {
	m := map[string]float64{}
	rec := eng.rec
	cfg := core.DefaultConfig()
	for _, w := range widths {
		step, run, err := eng.at(w)
		if err != nil {
			return nil, err
		}
		m[fmt.Sprintf("pdn.step_ns.w%d", w)] = step
		m[fmt.Sprintf("core.overhead_ns_per_lane_step.w%d", w)] = run - step
	}
	lab, err := newLab(0, 0)
	if err != nil {
		return nil, err
	}
	table := lab.Search.Table

	// Stressmark power on the workloads the noise studies build: one
	// synchronized and one free-running copy set.
	spec := lab.MaxSpec(2e6)
	syncSpec := spec
	cond := tod.DefaultSync()
	syncSpec.Sync, syncSpec.Events = &cond, sweepEvents
	syncWl, err := stressmark.SyncWorkloads(syncSpec, cfg.Core, table, nil)
	if err != nil {
		return nil, err
	}
	freeWl, err := stressmark.UnsyncWorkloads(spec, cfg.Core, table)
	if err != nil {
		return nil, err
	}
	const powerCalls = 20000
	if m["stressmark.power_ns"], err = timeBlock(rec, "stressmark.Workload.Power", 2*powerCalls, func() error {
		for i := 0; i < powerCalls; i++ {
			t := float64(i) * cfg.Dt
			sink += syncWl[0].Power(t) + freeWl[0].Power(t)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Skitter sampling replayed over recorded core voltage traces.
	traces, err := lab.Waveform(2e6, 20e-6)
	if err != nil {
		return nil, err
	}
	sc := cfg.Skitter
	sc.Vnom = cfg.PDN.Vnom
	macro, err := skitter.NewMacro(sc)
	if err != nil {
		return nil, err
	}
	samples := 0
	for _, tr := range traces {
		samples += len(tr.Samples)
	}
	if m["skitter.sample_ns"], err = timeBlock(rec, "skitter.Macro.Sample", float64(samples), func() error {
		macro.Reset()
		for _, tr := range traces {
			for _, v := range tr.Samples {
				macro.Sample(v)
			}
		}
		sink += macro.PeakToPeakPercent()
		return nil
	}); err != nil {
		return nil, err
	}

	freqs := pdn.LogSpace(100e3, 5e6, sweepPoints)
	if m["noise.impedance_ms"], err = timeBlock(rec, "noise.Lab.ImpedanceProfile", 1e6, func() error {
		_, err := lab.ImpedanceProfile(freqs)
		return err
	}); err != nil {
		return nil, err
	}

	if m["core.platform_new_ms"], err = timeBlock(rec, "core.New", 1e6, func() error {
		p, err := core.New(cfg)
		if err != nil {
			return err
		}
		s, err := p.Sessions().Get(1.0)
		p.Sessions().Put(s)
		return err
	}); err != nil {
		return nil, err
	}
	if m["core.calibrate_ms"], err = timeBlock(rec, "core.SessionPool.AutoBatchWidth", 1e6, func() error {
		sink += float64(core.NewSessionPool(cfg).AutoBatchWidth())
		return nil
	}); err != nil {
		return nil, err
	}
	pool := core.NewSessionPool(cfg)
	const gets = 200
	if m["core.pool_get_us"], err = timeBlock(rec, "core.SessionPool.GetBatch", gets*1e3, func() error {
		for i := 0; i < gets; i++ {
			s, err := pool.GetBatch(1.0, pdn.WideBatchLanes)
			if err != nil {
				return err
			}
			pool.PutBatch(s)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	if err := populationReplay(ctx, e, rec, m); err != nil {
		return nil, err
	}
	if m["journal.append_us_p50"], err = journalReplay(e, rec); err != nil {
		return nil, err
	}
	return m, nil
}

// steadyCircuit is the zEC12 PDN with every core drawing 30 W, as
// core sessions stamp it.
func steadyCircuit(cfg core.Config) *pdn.Circuit {
	c, nodes := pdn.ZEC12(cfg.PDN)
	for i := 0; i < core.NumCores; i++ {
		c.AddLoad(fmt.Sprintf("core%d", i), nodes.Core[i], func(float64) float64 { return 30 / cfg.PDN.Vnom })
	}
	c.AddLoad("uncore", nodes.L3, func(float64) float64 { return cfg.UncorePower / cfg.PDN.Vnom })
	return c
}

// pdnStep is a block of transient-engine steps at width w, in
// lane-steps.
func pdnStep(cfg core.Config, w int) (block, error) {
	c := steadyCircuit(cfg)
	n := replayLaneSteps / w
	if w == 1 {
		tr, err := pdn.NewTransientAt(c, cfg.Dt, 0)
		if err != nil {
			return block{}, err
		}
		return block{"pdn.Transient.Step", replayLaneSteps, func() error {
			for i := 0; i < n; i++ {
				if err := tr.Step(); err != nil {
					return err
				}
			}
			return nil
		}}, nil
	}
	bt, err := pdn.NewBatchTransientAt(c, cfg.Dt, 0, w, nil)
	if err != nil {
		return block{}, err
	}
	return block{"pdn.BatchTransient.Step", float64(n * w), func() error {
		for i := 0; i < n; i++ {
			if err := bt.Step(); err != nil {
				return err
			}
		}
		return nil
	}}, nil
}

// coreRun is a block of session runs at width w with steady loads, in
// lane-steps: the pdn step plus load evaluation, observation and
// accounting.
func coreRun(ctx context.Context, cfg core.Config, w int) (block, error) {
	n := replayLaneSteps / w
	var wl [core.NumCores]core.Workload
	for i := range wl {
		wl[i] = core.Steady("replay", 30)
	}
	spec := core.RunSpec{Workloads: wl, Warmup: cfg.Dt, Duration: float64(n) * cfg.Dt}
	laneSteps := float64(w * (n + 1))
	if w == 1 {
		s, err := core.NewSession(cfg)
		if err != nil {
			return block{}, err
		}
		return block{"core.Session.RunContext", laneSteps, func() error {
			_, err := s.RunContext(ctx, spec)
			return err
		}}, nil
	}
	bs, err := core.NewBatchSession(cfg, w)
	if err != nil {
		return block{}, err
	}
	specs := make([]core.RunSpec, w)
	for l := range specs {
		specs[l] = spec
	}
	return block{"core.BatchSession.RunBatch", laneSteps, func() error {
		_, err := bs.RunBatchContext(ctx, specs)
		return err
	}}, nil
}

// populationReplay runs one fleet study and times folding its chip
// summaries into the result distributions.
func populationReplay(ctx context.Context, e *env, rec *recorder, m map[string]float64) error {
	cfg := fleetConfig(e.seed)
	summaries := make([]population.ChipSummary, cfg.Chips)
	cfg.Progress = func(ev progress.Event) {
		for _, s := range ev.Payload.([]population.ChipSummary) {
			summaries[s.Chip] = s
		}
	}
	sp := rec.start("population.Run", 0, 0)
	t0 := time.Now()
	if _, err := population.Run(ctx, cfg); err != nil {
		return err
	}
	m["population.chips_per_s"] = float64(cfg.Chips) / time.Since(t0).Seconds()
	sp.end()
	var err error
	m["population.fold_ms"], err = timeBlock(rec, "population.Fold", 1e6, func() error {
		sink += population.Fold(cfg, summaries).Guardband.P99
		return nil
	})
	return err
}

// journalReplay appends accept and finish records to a fresh journal
// and returns the median append latency in us.
func journalReplay(e *env, rec *recorder) (float64, error) {
	dir, err := e.tempDir("journal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, err := journal.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return 0, err
	}
	defer j.Close()
	req, err := json.Marshal(coldRequest(e.seed, 0))
	if err != nil {
		return 0, err
	}
	const jobs = 16
	var us []float64
	timed := func(name string, fn func() error) error {
		sp := rec.start(name, 0, 0)
		t0 := time.Now()
		err := fn()
		us = append(us, float64(time.Since(t0))/1e3)
		sp.end()
		return err
	}
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j-%06d", i+1)
		if err := timed("journal.Accept", func() error { return j.Accept(id, id, req) }); err != nil {
			return 0, err
		}
		if err := timed("journal.Finish", func() error { return j.Finish(id, "done") }); err != nil {
			return 0, err
		}
	}
	return median(us), nil
}

// hostProbe returns the host's SHA-256 throughput in MB/s over a fixed
// buffer: a drift diagnostic that moves with the machine, not the code.
func hostProbe() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var rates []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		sum := sha256.Sum256(buf)
		rates = append(rates, float64(len(buf))/1e6/time.Since(t0).Seconds())
		sink += float64(sum[0])
	}
	return median(rates)
}
