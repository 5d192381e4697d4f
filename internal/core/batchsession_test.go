package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
)

// laneWorkload returns a lane-distinct square wave so cross-lane
// contamination in the lockstep engine cannot go unnoticed.
func laneWorkload(lane int) Workload {
	period := (0.4 + 0.1*float64(lane)) * 1e-6
	hi := 40 + 4*float64(lane)
	return FuncWorkload{Label: "lane-osc", Fn: func(t float64) float64 {
		if math.Mod(t, period) < period/2 {
			return hi
		}
		return 12
	}}
}

// TestBatchSessionMatchesSessions is the batch engine's core contract:
// every lane of a heterogeneous batch (different workloads per lane,
// one lane recording traces) is bit-identical to running that lane's
// spec alone at width 1.
func TestBatchSessionMatchesSessions(t *testing.T) {
	const lanes = 3
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, lanes)
	for l := range specs {
		var wl [NumCores]Workload
		for i := 0; i <= l; i++ {
			wl[i] = laneWorkload(l)
		}
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: 20e-6, Record: l == 1}
	}
	got, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l := range specs {
		identicalMeasurements(t, fmt.Sprintf("lane %d", l), got[l], runAlone(t, cfg, 1.0, cfg.CoreGain, specs[l]))
	}
}

// TestBatchSessionRaggedDurations packs lanes with different Durations
// (shared Start and Warmup, two lanes recording traces) into one batch:
// the engine steps to the longest lane's end while shorter lanes stop
// observing at their own, and every lane must stay bit-identical to a
// lane-per-run width-1 session.
func TestBatchSessionRaggedDurations(t *testing.T) {
	const lanes = 3
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	durs := []float64{8e-6, 20e-6, 14e-6}
	specs := make([]RunSpec, lanes)
	for l := range specs {
		var wl [NumCores]Workload
		for i := 0; i <= l; i++ {
			wl[i] = laneWorkload(l)
		}
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: durs[l], Record: l >= 1}
	}
	got, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l := range specs {
		identicalMeasurements(t, fmt.Sprintf("lane %d", l), got[l], runAlone(t, cfg, 1.0, cfg.CoreGain, specs[l]))
	}
}

// TestBatchSessionLaneBiases packs three supply biases into one batch
// (the vmin walk pattern) and checks each lane matches a width-1
// session retuned to that bias.
func TestBatchSessionLaneBiases(t *testing.T) {
	cfg := DefaultConfig()
	biases := []float64{1.0, 0.95, 0.9}
	bs, err := NewBatchSession(cfg, len(biases))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, len(biases))
	for l, b := range biases {
		if err := bs.SetLaneBias(l, b); err != nil {
			t.Fatal(err)
		}
		var wl [NumCores]Workload
		for i := range wl {
			wl[i] = oscWorkload()
		}
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: 15e-6}
	}
	got, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range biases {
		identicalMeasurements(t, "bias lane", got[l], runAlone(t, cfg, b, cfg.CoreGain, specs[l]))
	}
}

// TestBatchSessionLaneGains packs per-lane sensor-gain overrides (the
// population engine's aging/core-class mechanism) into one batch and
// checks each lane is bit-identical to a width-1 session carrying the
// same gains: the override lives in the macros only, so lanes sharing
// one factored circuit still read chip-specific sensitivities.
func TestBatchSessionLaneGains(t *testing.T) {
	cfg := DefaultConfig()
	const lanes = 3
	bs, err := NewBatchSession(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	gainSets := make([][NumCores]float64, lanes)
	specs := make([]RunSpec, lanes)
	for l := range gainSets {
		g := cfg.CoreGain
		for i := range g {
			g[i] *= 1 + 0.04*float64(l) - 0.01*float64(i)
		}
		gainSets[l] = g
		if err := bs.SetLaneGains(l, g); err != nil {
			t.Fatal(err)
		}
		var wl [NumCores]Workload
		wl[0], wl[3] = oscWorkload(), oscWorkload()
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: 12e-6}
	}
	got, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l := range specs {
		identicalMeasurements(t, "gain lane", got[l], runAlone(t, cfg, 1.0, gainSets[l], specs[l]))
	}
	// Validation: bad lane index and non-positive gains are rejected,
	// and a rejected set leaves the lane's gains untouched.
	if err := bs.SetLaneGains(lanes, cfg.CoreGain); err == nil {
		t.Error("lane out of range accepted")
	}
	var bad [NumCores]float64
	if err := bs.SetLaneGains(0, bad); err == nil {
		t.Error("zero gains accepted")
	}
	if bs.LaneGains(0) != gainSets[0] {
		t.Error("rejected gain set clobbered the lane")
	}
}

// countingWorkload is a comparable constant-power workload that tallies
// Power evaluations through a shared counter, so tests can observe how
// often the engines actually evaluate a deduplicated waveform. Power is
// pure in its return value; the counter is test instrumentation only.
type countingWorkload struct {
	n     *int
	watts float64
}

func (w countingWorkload) Power(float64) float64 { *w.n++; return w.watts }
func (w countingWorkload) Name() string          { return "counting" }

// TestBatchSessionCrossLaneDedup covers the cross-lane alias map: lanes
// sharing comparable workload values — at equal and at different biases
// — must stay bit-identical to lane-per-run width-1 sessions, whether
// the alias source sits in the same lane, an earlier lane at the same
// supply (current reused verbatim), or an earlier lane at a different
// supply (power copied, division redone).
func TestBatchSessionCrossLaneDedup(t *testing.T) {
	cfg := DefaultConfig()
	shared := Steady("stress", 37.5)
	tr := signal.NewTrace(cfg.Dt, 8)
	for i := range tr.Samples {
		tr.Samples[i] = 20 + 3*float64(i%4)
	}
	tw, err := NewTraceWorkload("ripple", tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	biases := []float64{1.0, 0.95, 1.0, 0.9}
	bs, err := NewBatchSession(cfg, len(biases))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]RunSpec, len(biases))
	for l, b := range biases {
		if err := bs.SetLaneBias(l, b); err != nil {
			t.Fatal(err)
		}
		var wl [NumCores]Workload
		wl[0] = shared        // every lane: cross-lane alias at mixed supplies
		wl[2] = oscWorkload() // FuncWorkload: deliberately never deduplicated
		if l%2 == 0 {
			wl[3] = tw // shared pointer workload, lanes 0 and 2 only
		}
		if l == 1 {
			wl[4] = shared // in-lane alias inside a non-root lane
		}
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: 12e-6}
	}
	got, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l, b := range biases {
		identicalMeasurements(t, "dedup lane", got[l], runAlone(t, cfg, b, cfg.CoreGain, specs[l]))
	}
}

// TestBatchSessionDedupEvaluatesOnce: a workload value shared by every
// core of every lane must be evaluated exactly once per engine step —
// the whole point of the cross-lane alias map. The counter tolerates
// the per-lane DC initializations (root lane only) but fails on
// anything close to per-lane or per-core evaluation.
func TestBatchSessionDedupEvaluatesOnce(t *testing.T) {
	cfg := DefaultConfig()
	const lanes = 4
	bs, err := NewBatchSession(cfg, lanes)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = countingWorkload{n: &count, watts: 33}
	}
	specs := make([]RunSpec, lanes)
	for l := range specs {
		specs[l] = RunSpec{Workloads: wl, Start: 0, Duration: 10e-6, Warmup: 5e-6}
	}
	if _, err := bs.RunBatchContext(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	steps := int(math.Round(15e-6/cfg.Dt)) + 2 // warmup + window + DC init
	if count > steps {
		t.Errorf("shared workload evaluated %d times over ~%d steps; dedup not engaging", count, steps)
	}
	if count == 0 {
		t.Error("shared workload never evaluated")
	}
}

// TestAutoBatchWidth: the pool's auto width is the pdn rule, and
// asking a fresh pool for it costs nothing — no probe sessions, no
// timing runs.
func TestAutoBatchWidth(t *testing.T) {
	const runs = 10
	pools := make([]*SessionPool, runs+1) // AllocsPerRun adds a warm-up call
	for i := range pools {
		pools[i] = NewSessionPool(DefaultConfig())
	}
	next := 0
	a := testing.AllocsPerRun(runs, func() {
		if w, want := pools[next].AutoBatchWidth(), pdn.AutoBatchLanes(); w != want {
			t.Fatalf("AutoBatchWidth() = %d, want pdn.AutoBatchLanes() = %d", w, want)
		}
		next++
	})
	if a != 0 {
		t.Errorf("AutoBatchWidth on a fresh pool allocates %.0f times", a)
	}
}

// TestSessionPoolGainReset: a pooled session returned with overridden
// gains on its last lane comes back from GetBatch restored to the
// configuration's gains, so a borrower never inherits another chip's
// sensitivities.
func TestSessionPoolGainReset(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	aged := cfg.CoreGain
	for i := range aged {
		aged[i] *= 1.07
	}
	for _, lanes := range []int{1, 2} {
		bs, err := pool.GetBatch(1.0, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.SetLaneGains(lanes-1, aged); err != nil {
			t.Fatal(err)
		}
		pool.PutBatch(bs)
		bs2, err := pool.GetBatch(1.0, lanes)
		if err != nil {
			t.Fatal(err)
		}
		if bs2.LaneGains(lanes-1) != cfg.CoreGain {
			t.Errorf("width %d: pooled lane gains %v, want config gains %v", lanes, bs2.LaneGains(lanes-1), cfg.CoreGain)
		}
	}
}

// TestBatchSessionReuse runs two back-to-back heterogeneous batches on
// one session; the second must match fresh width-1 sessions, the
// reuse guarantee lifted to the batch engine.
func TestBatchSessionReuse(t *testing.T) {
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(d float64) []RunSpec {
		var wl0, wl1 [NumCores]Workload
		wl0[0] = laneWorkload(0)
		wl1[2], wl1[3] = laneWorkload(1), laneWorkload(2)
		return []RunSpec{
			{Workloads: wl0, Start: 0, Duration: d},
			{Workloads: wl1, Start: 0, Duration: d},
		}
	}
	if _, err := bs.RunBatchContext(context.Background(), mk(10e-6)); err != nil {
		t.Fatal(err)
	}
	got, err := bs.RunBatchContext(context.Background(), mk(14e-6))
	if err != nil {
		t.Fatal(err)
	}
	for l, spec := range mk(14e-6) {
		identicalMeasurements(t, "reused lane", got[l], runAlone(t, cfg, 1.0, cfg.CoreGain, spec))
	}
}

// TestBatchSessionValidation covers the batch-specific error paths:
// spec count mismatch, mismatched lane windows, bad lane indices.
func TestBatchSessionValidation(t *testing.T) {
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBatchSession(cfg, 0); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := bs.RunBatchContext(context.Background(), make([]RunSpec, 3)); err == nil {
		t.Error("spec count mismatch accepted")
	}
	specs := []RunSpec{
		{Duration: 10e-6},
		{Duration: 12e-6, Start: 1e-6},
	}
	if _, err := bs.RunBatchContext(context.Background(), specs); err == nil {
		t.Error("mismatched lane starts accepted")
	}
	specs[1] = RunSpec{Duration: 12e-6, Warmup: 5e-6}
	if _, err := bs.RunBatchContext(context.Background(), specs); err == nil {
		t.Error("mismatched lane warmups accepted")
	}
	specs[1] = RunSpec{Duration: -1}
	if _, err := bs.RunBatchContext(context.Background(), specs); err == nil {
		t.Error("non-positive lane duration accepted")
	}
	if err := bs.SetLaneBias(5, 1.0); err == nil {
		t.Error("lane out of range accepted")
	}
	if err := bs.SetLaneBias(0, 0.5); err == nil {
		t.Error("bias out of range accepted")
	}
}

// TestBatchSessionCancellation: a canceled context interrupts the
// lockstep window and leaves the session reusable.
func TestBatchSessionCancellation(t *testing.T) {
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bs.RunBatchContext(ctx, make([]RunSpec, 2)); err == nil {
		t.Error("invalid zero-duration specs accepted")
	}
	specs := []RunSpec{{Duration: 10e-6}, {Duration: 10e-6}}
	if _, err := bs.RunBatchContext(ctx, specs); err != context.Canceled {
		t.Errorf("canceled batch returned %v, want context.Canceled", err)
	}
	if _, err := bs.RunBatchContext(context.Background(), specs); err != nil {
		t.Errorf("session unusable after cancellation: %v", err)
	}
}

// TestSessionPoolBatch: GetBatch hands back width-matched pooled
// sessions and results stay bit-identical cold vs warm.
func TestSessionPoolBatch(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	specs := []RunSpec{{Duration: 10e-6}, {Duration: 10e-6}}
	bs, err := pool.GetBatch(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := bs.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	pool.PutBatch(bs)
	again, err := pool.GetBatch(1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again != bs {
		t.Error("pool did not recycle the width-2 batch session")
	}
	warm, err := again.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for l := range cold {
		identicalMeasurements(t, "pooled batch lane", warm[l], cold[l])
	}
	if other, err := pool.GetBatch(1.0, 3); err != nil {
		t.Fatal(err)
	} else if other.Lanes() != 3 {
		t.Errorf("GetBatch(3) returned width %d", other.Lanes())
	}
}

// batchRunSpecs returns one spec per lane over a study-length window
// (30 us warm-up, 60 us measured). loads picks the cores' workloads:
// "aliased" gives every slot one shared steady load (one distinct
// slot, held for the whole run); "distinct" gives every core of every
// lane its own 2 MHz square wave (waveWorkload, with Hold) at its own
// phase, so fillLoads evaluates each slot only at its edges; "func"
// gives every core its own FuncWorkload square wave, which has no Hold
// and is evaluated every step.
func batchRunSpecs(lanes int, loads string) []RunSpec {
	shared := Steady("shared", 30)
	specs := make([]RunSpec, lanes)
	for l := range specs {
		var wl [NumCores]Workload
		for i := range wl {
			g := l*NumCores + i
			switch loads {
			case "aliased":
				wl[i] = shared
			case "distinct":
				wl[i] = squareWorkload(0.5e-6, float64(g)/float64(lanes*NumCores))
			case "func":
				wl[i] = laneWorkload(g)
			default:
				panic("unknown loads " + loads)
			}
		}
		specs[l] = RunSpec{Workloads: wl, Warmup: 30e-6, Duration: 60e-6}
	}
	return specs
}

// TestBatchSessionSteadyStateAllocs extends the width-1 guard
// (TestSessionSteadyStateAllocs) to reused batch sessions at widths 4
// and 16 with a distinct workload on every core, with and without
// Hold: the load fill, the steps and the observation allocate nothing,
// leaving the returned slice and one Measurement per lane.
func TestBatchSessionSteadyStateAllocs(t *testing.T) {
	for _, lanes := range []int{pdn.NarrowBatchLanes, pdn.WideBatchLanes} {
		for _, loads := range []string{"distinct", "func"} {
			bs, err := NewBatchSession(DefaultConfig(), lanes)
			if err != nil {
				t.Fatal(err)
			}
			specs := batchRunSpecs(lanes, loads)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := bs.RunBatchContext(context.Background(), specs); err != nil {
					t.Fatal(err)
				}
			})
			if want := float64(lanes + 1); allocs > want {
				t.Errorf("lanes=%d %s: RunBatchContext allocates %v objects per run, want <= %v", lanes, loads, allocs, want)
			}
		}
	}
}

// BenchmarkBatchSessionRun times a reused batch session's runs at
// widths 1, 4 and 16 over a study-length window, with the loads of
// batchRunSpecs: every core sharing one steady load ("aliased"), a
// distinct held square wave per core ("distinct", the shape of the
// sweep workload's free-running stressmarks) and a distinct
// FuncWorkload per core ("func", the per-step path of loads without
// Hold). It reports the price of one lane-step: the pdn step plus the
// load fill, observation and accounting.
func BenchmarkBatchSessionRun(b *testing.B) {
	for _, lanes := range []int{1, pdn.NarrowBatchLanes, pdn.WideBatchLanes} {
		for _, loads := range []string{"aliased", "distinct", "func"} {
			b.Run(fmt.Sprintf("Lanes%d/%s", lanes, loads), func(b *testing.B) {
				cfg := DefaultConfig()
				bs, err := NewBatchSession(cfg, lanes)
				if err != nil {
					b.Fatal(err)
				}
				specs := batchRunSpecs(lanes, loads)
				steps := math.Round((specs[0].Warmup + specs[0].Duration) / cfg.Dt)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bs.RunBatchContext(context.Background(), specs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(lanes)*steps), "ns/lane-step")
			})
		}
	}
}
