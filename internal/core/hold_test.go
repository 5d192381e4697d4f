package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
)

// waveWorkload is a square-wave core load with Hold (promoted from
// signal.SquareWave): the shape of a free-running dI/dt stressmark.
type waveWorkload struct{ signal.SquareWave }

func (w waveWorkload) Power(t float64) float64 { return w.Value(t) }
func (w waveWorkload) Name() string            { return "wave" }

// squareWorkload returns a 12 W / 40 W square wave with 2 ns edges,
// shifted by frac of its period.
func squareWorkload(period, frac float64) Workload {
	return waveWorkload{signal.SquareWave{Low: 12, High: 40, Period: period, Duty: 0.5, Rise: 2e-9, Phase: frac * period}}
}

// powerOnly hides a workload's Hold, so the session fill evaluates it
// every step. slot makes every wrapped slot a distinct value, so no
// slot aliases another either.
type powerOnly struct {
	Workload
	slot int
}

// sameMeasurementBits compares every float of two measurements by its
// bits, traces included.
func sameMeasurementBits(t *testing.T, label string, got, want *Measurement) {
	t.Helper()
	bits := math.Float64bits
	for i := 0; i < NumCores; i++ {
		if bits(got.P2P[i]) != bits(want.P2P[i]) || got.PosMin[i] != want.PosMin[i] || got.PosMax[i] != want.PosMax[i] {
			t.Errorf("%s: core %d skitter reading differs", label, i)
		}
		if bits(got.VMin[i]) != bits(want.VMin[i]) || bits(got.VMax[i]) != bits(want.VMax[i]) {
			t.Errorf("%s: core %d VMin/VMax %v/%v != %v/%v", label, i, got.VMin[i], got.VMax[i], want.VMin[i], want.VMax[i])
		}
		if (got.Traces[i] == nil) != (want.Traces[i] == nil) {
			t.Fatalf("%s: core %d trace presence differs", label, i)
		}
		if got.Traces[i] != nil {
			for k, v := range got.Traces[i].Samples {
				if bits(v) != bits(want.Traces[i].Samples[k]) {
					t.Fatalf("%s: core %d trace sample %d: %v != %v", label, i, k, v, want.Traces[i].Samples[k])
				}
			}
		}
	}
	if got.ChipPowerMilliwatts != want.ChipPowerMilliwatts || got.NominalPos != want.NominalPos {
		t.Errorf("%s: chip power %d / nominal pos %d != %d / %d", label,
			got.ChipPowerMilliwatts, got.NominalPos, want.ChipPowerMilliwatts, want.NominalPos)
	}
}

// hideHolds returns the reference for specs: every slot evaluated on
// its own at every step. Each comparable workload, idle slots included,
// is wrapped in its own powerOnly; FuncWorkloads, which are
// uncomparable and so never aliased, and have no Hold, stay as they
// are.
func hideHolds(specs []RunSpec) []RunSpec {
	out := append([]RunSpec(nil), specs...)
	for l := range out {
		for i, w := range out[l].Workloads {
			if w == nil {
				w = Idle(DefaultConfig().Core)
			}
			if _, ok := w.(FuncWorkload); !ok {
				out[l].Workloads[i] = powerOnly{w, l*NumCores + i}
			}
		}
	}
	return out
}

// heldSpecs mixes every kind of slot the fill meets: square waves at
// per-lane phases and rates, one wave shared by core 0 of every lane
// (aliased across lanes, and so across supplies once the biases
// differ), a steady load shared within and across lanes, idle slots, a
// trace replay, and a FuncWorkload on lane 1 beside the held slots.
// Lane 0 records its traces. start may be negative.
func heldSpecs(t *testing.T, lanes int, start float64) []RunSpec {
	t.Helper()
	tr := signal.NewTrace(DefaultConfig().Dt, 8)
	for i := range tr.Samples {
		tr.Samples[i] = 20 + 3*float64(i%4)
	}
	tw, err := NewTraceWorkload("ripple", tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := squareWorkload(0.4e-6, 0.25)
	steady := Steady("stress", 37.5)
	specs := make([]RunSpec, lanes)
	for l := range specs {
		var wl [NumCores]Workload
		wl[0] = shared
		wl[1] = squareWorkload((0.3+0.05*float64(l))*1e-6, 0.1*float64(l))
		wl[2] = steady
		wl[3] = squareWorkload(1e-6, 0.5)
		if l%3 == 1 {
			wl[4] = oscWorkload()
		} else {
			wl[4] = steady
		}
		if l%2 == 0 {
			wl[5] = tw
		}
		specs[l] = RunSpec{Workloads: wl, Start: start, Warmup: 2e-6, Duration: 6e-6, Record: l == 0}
	}
	return specs
}

// TestHeldFillMatchesPowerFill: held samples change nothing. The same
// specs run with holding workloads and aliases, and with every Hold
// hidden and no slot aliased, must give bit-identical Measurements,
// traces included, at widths 1, 4 and 16;
// after a SetLaneBias between two runs (aliases across lanes now at
// different supplies); and on a pooled session that runs the same
// specs back to back, rewinding to a start the previous run's holds
// lie past, which passes only if every run starts with cleared holds.
func TestHeldFillMatchesPowerFill(t *testing.T) {
	cfg := DefaultConfig()
	for _, lanes := range []int{1, pdn.NarrowBatchLanes, pdn.WideBatchLanes} {
		pool := NewSessionPool(cfg)
		held, err := pool.GetBatch(1.0, lanes)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewBatchSession(cfg, lanes)
		if err != nil {
			t.Fatal(err)
		}
		compare := func(label string, specs []RunSpec) {
			t.Helper()
			got, err := held.RunBatchContext(context.Background(), specs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.RunBatchContext(context.Background(), hideHolds(specs))
			if err != nil {
				t.Fatal(err)
			}
			for l := range got {
				sameMeasurementBits(t, fmt.Sprintf("lanes=%d %s lane %d", lanes, label, l), got[l], want[l])
			}
		}
		compare("first run", heldSpecs(t, lanes, 1e-6))
		for l := 0; l < lanes; l += 2 {
			for _, s := range []*BatchSession{held, plain} {
				if err := s.SetLaneBias(l, 0.95); err != nil {
					t.Fatal(err)
				}
			}
		}
		compare("after SetLaneBias", heldSpecs(t, lanes, -3e-6))
		pool.PutBatch(held)
		if held, err = pool.GetBatch(1.0, lanes); err != nil {
			t.Fatal(err)
		}
		if err := plain.SetVoltageBias(1.0); err != nil {
			t.Fatal(err)
		}
		compare("pooled rerun", heldSpecs(t, lanes, 1e-6))
		compare("back to back", heldSpecs(t, lanes, 1e-6))
	}
}

// countingHolder is a steady load with Hold that counts its
// evaluations through a shared counter (test instrumentation only).
type countingHolder struct {
	n     *int
	watts float64
}

func (w countingHolder) Power(float64) float64 { *w.n++; return w.watts }
func (w countingHolder) Name() string          { return "counting-holder" }
func (w countingHolder) Hold(float64) (p, until float64) {
	*w.n++
	return w.watts, math.Inf(1)
}

// TestHeldFillSkipsHeldSteps: a load that holds forever is evaluated
// once per run (at the DC point), and a square wave only near its
// edges, not every step.
func TestHeldFillSkipsHeldSteps(t *testing.T) {
	cfg := DefaultConfig()
	bs, err := NewBatchSession(cfg, pdn.NarrowBatchLanes)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = countingHolder{n: &count, watts: 33}
	}
	specs := make([]RunSpec, bs.Lanes())
	for l := range specs {
		specs[l] = RunSpec{Workloads: wl, Duration: 10e-6, Warmup: 5e-6}
	}
	if _, err := bs.RunBatchContext(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("a load held forever was evaluated %d times in one run, want 1", count)
	}

	// A 2 MHz wave with 2 ns edges has two edges a period; at each the
	// fill evaluates the step on the edge and the first step of the
	// next plateau, so over 30 periods it evaluates about 120 of the
	// 7,500 steps.
	count = 0
	cw := countingWave{squareWorkload(0.5e-6, 0).(waveWorkload), &count}
	runAlone(t, cfg, 1.0, cfg.CoreGain, RunSpec{Workloads: [NumCores]Workload{cw}, Duration: 10e-6, Warmup: 5e-6})
	if periods := 30; count < 2*periods || count > 8*periods+2 {
		t.Errorf("a 2 MHz wave was evaluated %d times over %d periods, want 2 to 8 a period", count, periods)
	}
}

// countingWave is a waveWorkload that counts its Hold calls.
type countingWave struct {
	waveWorkload
	n *int
}

func (w countingWave) Hold(t float64) (p, until float64) {
	*w.n++
	return w.waveWorkload.Hold(t)
}
