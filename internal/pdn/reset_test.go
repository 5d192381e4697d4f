package pdn

import (
	"math"
	"testing"
)

// loadedRLC builds a small network with every element kind and a
// time-varying load, so Reset has real companion state to restore.
func loadedRLC() (*Circuit, NodeID) {
	ckt := NewCircuit()
	src, mid, out := ckt.Node("src"), ckt.Node("mid"), ckt.Node("out")
	ckt.FixNode(src, 1.0)
	ckt.AddResistor("r", src, mid, 0.05)
	ckt.AddInductor("l", mid, out, 5e-9)
	ckt.AddCapacitor("c", out, Ground, 2e-6, 1e-3)
	ckt.AddLoad("load", out, func(t float64) float64 {
		if math.Mod(t, 1e-6) < 0.5e-6 {
			return 2
		}
		return 0.5
	})
	return ckt, out
}

// TestResetMatchesFreshTransient steps a transient far from its start,
// resets it, and checks every subsequent sample is bit-identical to a
// freshly built transient at the same origin.
func TestResetMatchesFreshTransient(t *testing.T) {
	const dt = 1e-9
	for _, start := range []float64{0, -3e-6} {
		ckt, out := loadedRLC()
		tr, err := NewBatchTransientAt(ckt, dt, start, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Reset(start); err != nil {
			t.Fatal(err)
		}
		if tr.Time() != start {
			t.Fatalf("Reset time %g, want %g", tr.Time(), start)
		}
		freshCkt, freshOut := loadedRLC()
		fresh, err := NewBatchTransientAt(freshCkt, dt, start, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Voltage(0, out), fresh.Voltage(0, freshOut); got != want {
			t.Fatalf("start %g: DC after Reset %v != fresh %v", start, got, want)
		}
		for i := 0; i < 4000; i++ {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := tr.Voltage(0, out), fresh.Voltage(0, freshOut); got != want {
				t.Fatalf("start %g: step %d: %v != %v", start, i, got, want)
			}
		}
	}
}

// TestResetOnZEC12MatchesFresh repeats the reset-vs-fresh check on the
// full calibrated network — the configuration every session reuses.
func TestResetOnZEC12MatchesFresh(t *testing.T) {
	cfg := DefaultZEC12Config()
	const dt = 10e-9
	build := func() (*BatchTransient, NodeID) {
		ckt, nodes := ZEC12(cfg)
		ckt.AddLoad("core0", nodes.Core[0], func(t float64) float64 {
			if math.Mod(t, 0.5e-6) < 0.25e-6 {
				return 40
			}
			return 10
		})
		tr, err := NewBatchTransientAt(ckt, dt, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr, nodes.Core[0]
	}
	tr, probe := build()
	for i := 0; i < 2000; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Reset(0); err != nil {
		t.Fatal(err)
	}
	fresh, freshProbe := build()
	for i := 0; i < 2000; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Voltage(0, probe), fresh.Voltage(0, freshProbe); got != want {
			t.Fatalf("step %d: reset %v != fresh %v", i, got, want)
		}
	}
}

// TestStepDoesNotAllocate pins the step loop as allocation-free: the
// whole session-reuse design rests on the integrator running entirely
// on preallocated state.
func TestStepDoesNotAllocate(t *testing.T) {
	ckt, _ := loadedRLC()
	tr, err := NewBatchTransientAt(ckt, 1e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Step allocates %v objects per call, want 0", allocs)
	}
}

// TestResetPreservesPlanAfterRefix moves a width-1 engine's fixed
// source potential after it has run (a bias change) and resets it:
// through the cached plan, the DC point and every later step must
// match a fresh engine over a circuit fixed at the new potential.
func TestResetPreservesPlanAfterRefix(t *testing.T) {
	ckt, out := loadedRLC()
	tr, err := NewBatchTransientAt(ckt, 1e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SetLaneFixed(0, ckt.Node("src"), 0.9); err != nil {
		t.Fatal(err)
	}
	if err := tr.Reset(0); err != nil {
		t.Fatal(err)
	}
	freshCkt, freshOut := loadedRLC()
	freshCkt.FixNode(freshCkt.Node("src"), 0.9)
	fresh, err := NewBatchTransientAt(freshCkt, 1e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Voltage(0, out), fresh.Voltage(0, freshOut); got != want {
		t.Fatalf("re-fixed DC %v != fresh %v", got, want)
	}
	for i := 0; i < 1000; i++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Voltage(0, out), fresh.Voltage(0, freshOut); got != want {
			t.Fatalf("step %d after re-fix: %v != %v", i, got, want)
		}
	}
}
