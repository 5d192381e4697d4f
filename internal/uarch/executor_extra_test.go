package uarch

import (
	"math"
	"testing"

	"voltnoise/internal/isa"
)

func TestEnergyTraceShape(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 1000; i++ {
		e := ex.StepCycle()
		lo, hi = math.Min(lo, e), math.Max(hi, e)
	}
	// A saturated stream dissipates energy every cycle.
	if lo <= 0 {
		t.Errorf("zero-energy cycle in saturated stream (min %g)", lo)
	}
	// Steady state: per-cycle energy is constant for this stream.
	if hi-lo > 1e-15 {
		t.Errorf("per-cycle energy varies by %g for a uniform stream", hi-lo)
	}
}

func TestEnergyTraceSerializedStreamIsBursty(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("srnm", []*isa.Instruction{ins("SRNM")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	zero, nonzero := 0, 0
	for i := 0; i < 64; i++ {
		if ex.StepCycle() == 0 {
			zero++
		} else {
			nonzero++
		}
	}
	// One dispatch per 8 cycles: 8 of 64 cycles carry energy.
	if nonzero != 8 || zero != 56 {
		t.Errorf("serialized stream: %d energetic, %d idle cycles", nonzero, zero)
	}
}

func TestAveragePowerPanicsOnEmptyWindow(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("x", []*isa.Instruction{ins("CIB")})
	ex, _ := NewExecutor(cfg, p)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ex.AveragePower(0, 0)
}

func TestCycleCounterAdvances(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("x", []*isa.Instruction{ins("CHHSI")})
	ex, _ := NewExecutor(cfg, p)
	if ex.cycle != 0 {
		t.Errorf("initial cycle %d", ex.cycle)
	}
	for i := 0; i < 10; i++ {
		ex.StepCycle()
	}
	if ex.cycle != 10 {
		t.Errorf("after 10 steps cycle = %d", ex.cycle)
	}
}

func TestMultiMicroOpDispatchSplitsAcrossCycles(t *testing.T) {
	// A 3-uop LSU instruction (crypto class) must respect the 2-pipe
	// LSU bandwidth: its uops split across cycles.
	cfg := DefaultConfig()
	var crypto *isa.Instruction
	for _, in := range tab().Instructions() {
		if in.Unit == isa.UnitLSU && in.MicroOps == 3 {
			crypto = in
			break
		}
	}
	if crypto == nil {
		t.Skip("no 3-uop LSU instruction in table")
	}
	p := MustProgram("crypto", []*isa.Instruction{crypto})
	ss := cfg.Analyze(p)
	ex, _ := NewExecutor(cfg, p)
	for i := 0; i < 500; i++ {
		ex.StepCycle()
	}
	_, c := ex.MeanEnergyWithCounters(2000)
	gotIPC := float64(c.MicroOps) / float64(c.Cycles)
	if math.Abs(gotIPC-ss.IPC)/ss.IPC > 0.05 {
		t.Errorf("executor IPC %g vs analytic %g for multi-uop stream", gotIPC, ss.IPC)
	}
}

func TestResetMatchesFreshExecutor(t *testing.T) {
	// Reset + MeanEnergyWithCounters must be bit-identical to a fresh
	// NewExecutor stepped cycle by cycle, summing in cycle order — the
	// epi profiler leans on that equivalence to recycle one executor
	// across the whole ISA.
	cfg := DefaultConfig()
	mns := []string{"CHHSI", "CIB", "SRNM"}
	ex, err := NewExecutor(cfg, MustProgram("seed", []*isa.Instruction{ins(mns[0])}))
	if err != nil {
		t.Fatal(err)
	}
	const warmup, n = 64, 512
	for _, mn := range mns {
		p := MustProgram(mn, []*isa.Instruction{ins(mn), ins(mn), ins(mn)})
		if err := ex.Reset(p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmup; i++ {
			ex.StepCycle()
		}
		mean, c := ex.MeanEnergyWithCounters(n)

		ref, err := NewExecutor(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warmup; i++ {
			ref.StepCycle()
		}
		sum, rc := 0.0, Counters{}
		for i := 0; i < n; i++ {
			energy, dispatched := ref.stepCycle()
			sum += energy
			rc.Cycles++
			rc.MicroOps += int64(dispatched)
			if dispatched > 0 {
				rc.Groups++
			}
		}
		if want := sum / n; mean != want {
			t.Errorf("%s: reset mean %g != fresh mean %g", mn, mean, want)
		}
		if c != rc {
			t.Errorf("%s: reset counters %+v != fresh %+v", mn, c, rc)
		}
	}
}

func TestResetAndMeanEnergyAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("alloc", []*isa.Instruction{ins("CHHSI"), ins("CIB")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := ex.Reset(p); err != nil {
			t.Fatal(err)
		}
		ex.MeanEnergyWithCounters(256)
	})
	if allocs != 0 {
		t.Errorf("Reset+MeanEnergyWithCounters allocated %.1f/op, want 0", allocs)
	}
}
