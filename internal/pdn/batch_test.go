package pdn

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// batchWave returns the per-lane load waveform used by the batch
// bit-identity tests: same shape, lane-distinct period and magnitude
// so cross-lane contamination cannot cancel out.
func batchWave(lane int) func(float64) float64 {
	period := (0.8 + 0.2*float64(lane)) * 1e-6
	hi := 2 + 0.5*float64(lane)
	return func(t float64) float64 {
		if math.Mod(t, period) < period/2 {
			return hi
		}
		return 0.5
	}
}

// rlcWithLoad builds the loadedRLC network with the given load.
func rlcWithLoad(load func(float64) float64) (*Circuit, NodeID) {
	ckt := NewCircuit()
	src, mid, out := ckt.Node("src"), ckt.Node("mid"), ckt.Node("out")
	ckt.FixNode(src, 1.0)
	ckt.AddResistor("r", src, mid, 0.05)
	ckt.AddInductor("l", mid, out, 5e-9)
	ckt.AddCapacitor("c", out, Ground, 2e-6, 1e-3)
	ckt.AddLoad("load", out, load)
	return ckt, out
}

// laneFill is the fill of an engine over c whose load closures read
// the lane they serve from *lane: lane by lane it points *lane at the
// lane and evaluates every load of c at t into cur.
func laneFill(c *Circuit, lane *int) func(t float64, cur []float64) {
	return func(t float64, cur []float64) {
		B := len(cur) / len(c.loads)
		for l := 0; l < B; l++ {
			*lane = l
			for k, ld := range c.loads {
				cur[k*B+l] = ld.Current(t)
			}
		}
	}
}

// newBatchRLC builds a batch engine over the RLC network whose single
// load closure reads the lane's waveform through laneFill.
func newBatchRLC(t *testing.T, lanes int, start float64) (*BatchTransient, NodeID) {
	t.Helper()
	cur := 0
	ckt, out := rlcWithLoad(func(tm float64) float64 {
		return batchWave(cur)(tm)
	})
	bt, err := NewBatchTransientAt(ckt, 1e-9, start, lanes, laneFill(ckt, &cur))
	if err != nil {
		t.Fatal(err)
	}
	return bt, out
}

// TestBatchLanesMatchSingleLane drives every lane of a width-4 batch
// with a lane-distinct load and checks each lane stays bit-identical
// to a dedicated single-lane Transient over thousands of steps — the
// core contract of the lockstep engine.
func TestBatchLanesMatchSingleLane(t *testing.T) {
	const lanes = 4
	for _, start := range []float64{0, -3e-6} {
		bt, out := newBatchRLC(t, lanes, start)
		singles := make([]*Transient, lanes)
		outs := make([]NodeID, lanes)
		for l := 0; l < lanes; l++ {
			ckt, o := rlcWithLoad(batchWave(l))
			tr, err := NewTransientAt(ckt, 1e-9, start)
			if err != nil {
				t.Fatal(err)
			}
			singles[l], outs[l] = tr, o
		}
		for l := 0; l < lanes; l++ {
			if got, want := bt.Voltage(l, out), singles[l].Voltage(outs[l]); got != want {
				t.Fatalf("start %g: lane %d DC %v != single %v", start, l, got, want)
			}
		}
		for i := 0; i < 4000; i++ {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				if err := singles[l].Step(); err != nil {
					t.Fatal(err)
				}
				if got, want := bt.Voltage(l, out), singles[l].Voltage(outs[l]); got != want {
					t.Fatalf("start %g: step %d lane %d: %v != %v", start, i, l, got, want)
				}
			}
		}
		// Branch currents too — the companion state, not just the
		// solved potentials.
		for ei := 0; ei < 3; ei++ {
			for l := 0; l < lanes; l++ {
				if got, want := bt.BranchCurrent(l, ei), singles[l].BranchCurrent(ei); got != want {
					t.Fatalf("element %d lane %d current %v != %v", ei, l, got, want)
				}
			}
		}
	}
}

// TestBatchWidthOneMatchesSingle pins the degenerate width-1 batch to
// the single-lane engine exactly, so callers can treat B=1 as just
// another width.
func TestBatchWidthOneMatchesSingle(t *testing.T) {
	bt, out := newBatchRLC(t, 1, 0)
	ckt, o := rlcWithLoad(batchWave(0))
	tr, err := NewTransientAt(ckt, 1e-9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := bt.Voltage(0, out), tr.Voltage(o); got != want {
			t.Fatalf("step %d: width-1 batch %v != single %v", i, got, want)
		}
	}
}

// TestBatchLaneFixedMatchesRefixedSingle retunes each lane's supply to
// a different potential (the vmin bias-walk pattern) and checks every
// lane tracks a single-lane engine re-fixed to the same potential —
// per-lane fixed potentials enter only the RHS, so one factorization
// serves all biases.
func TestBatchLaneFixedMatchesRefixedSingle(t *testing.T) {
	const lanes = 3
	bt, out := newBatchRLC(t, lanes, 0)
	src := bt.c.Node("src")
	for l := 0; l < lanes; l++ {
		if err := bt.SetLaneFixed(l, src, 1.0-0.05*float64(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Reset(0); err != nil {
		t.Fatal(err)
	}
	singles := make([]*Transient, lanes)
	outs := make([]NodeID, lanes)
	for l := 0; l < lanes; l++ {
		ckt, o := rlcWithLoad(batchWave(l))
		ckt.FixNode(ckt.Node("src"), 1.0-0.05*float64(l))
		tr, err := NewTransientAt(ckt, 1e-9, 0)
		if err != nil {
			t.Fatal(err)
		}
		singles[l], outs[l] = tr, o
	}
	for i := 0; i < 3000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			if err := singles[l].Step(); err != nil {
				t.Fatal(err)
			}
			if got, want := bt.Voltage(l, out), singles[l].Voltage(outs[l]); got != want {
				t.Fatalf("step %d lane %d: %v != %v", i, l, got, want)
			}
		}
	}
}

// TestBatchSetLaneFixedRejects covers the argument validation: lanes
// out of range and nodes that are not fixed supplies.
func TestBatchSetLaneFixedRejects(t *testing.T) {
	bt, out := newBatchRLC(t, 2, 0)
	src := bt.c.Node("src")
	if err := bt.SetLaneFixed(2, src, 1.0); err == nil {
		t.Error("lane out of range accepted")
	}
	if err := bt.SetLaneFixed(-1, src, 1.0); err == nil {
		t.Error("negative lane accepted")
	}
	if err := bt.SetLaneFixed(0, out, 1.0); err == nil {
		t.Error("SetLaneFixed on an unknown node accepted")
	}
}

// TestBatchResetMatchesFresh steps a batch far from its start, resets
// it, and checks every lane of every subsequent step is bit-identical
// to a freshly built batch.
func TestBatchResetMatchesFresh(t *testing.T) {
	const lanes = 3
	bt, out := newBatchRLC(t, lanes, 0)
	for i := 0; i < 4000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Reset(0); err != nil {
		t.Fatal(err)
	}
	fresh, fout := newBatchRLC(t, lanes, 0)
	for i := 0; i < 4000; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Step(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < lanes; l++ {
			if got, want := bt.Voltage(l, out), fresh.Voltage(l, fout); got != want {
				t.Fatalf("step %d lane %d: reset %v != fresh %v", i, l, got, want)
			}
		}
	}
}

// TestBatchRejectsBadArgs covers constructor validation.
func TestBatchRejectsBadArgs(t *testing.T) {
	ckt, _ := rlcWithLoad(func(float64) float64 { return 1 })
	if _, err := NewBatchTransient(ckt, 0, 4, nil); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := NewBatchTransient(ckt, 1e-9, 0, nil); err == nil {
		t.Error("zero lanes accepted")
	}
}

// TestBatchStepDoesNotAllocate pins the lockstep step loop as
// allocation-free, alongside the single-lane guard: the batch engine
// must run entirely on preallocated state whatever the width, on the
// RLC network and on the production zEC12 network at width 1.
func TestBatchStepDoesNotAllocate(t *testing.T) {
	check := func(name string, bt *BatchTransient) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, func() {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Step allocates %v objects per call, want 0", name, allocs)
		}
	}
	for _, lanes := range []int{1, 4, 8, 16} {
		bt, _ := newBatchRLC(t, lanes, 0)
		check(fmt.Sprintf("RLC lanes=%d", lanes), bt)
	}
	lane := 0
	bt, err := NewBatchTransient(zec12WithLaneLoads(&lane), 2e-9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("zEC12 lanes=1", bt)
}

// TestNewBatchTransientAllocs pins the cost of building a zEC12 engine.
// Objects are pinned at today's 70 per engine at every width: the
// factors' pattern slices are sized by a counting pass, one allocation
// each, where growing them by append took 168; each factor keeps one
// nonzero pattern (a second, run-grouped plan took 12 more objects and
// 1,728 B); the step plan is sized by a counting pass too (growing it
// by append took 5 more objects); the DC seeding keeps each branch
// voltage in a local, not in a per-element block (one more object,
// 6,144 B at width 16); and the load slab and the load slots share the
// RHS block's and the node slots' allocations. Bytes are pinned at the
// measured 30,864, 35,984, 43,280 and 57,104 at widths 1, 4, 8 and 16,
// plus slack for what the runtime allocates on its own while the
// builds run: the averaged reading moves by up to ~130 B from run to
// run. Population studies build engines per bin on every run, so
// construction allocation shows up end to end.
func TestNewBatchTransientAllocs(t *testing.T) {
	const (
		maxAllocs = 70
		slack     = 256
	)
	ckt, _ := ZEC12(DefaultZEC12Config())
	for _, c := range []struct {
		lanes    int
		maxBytes uint64
	}{{1, 30864}, {NarrowBatchLanes, 35984}, {DefaultBatchLanes, 43280}, {WideBatchLanes, 57104}} {
		build := func() {
			if _, err := NewBatchTransient(ckt, 2e-9, c.lanes, nil); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, build); allocs > maxAllocs {
			t.Errorf("lanes=%d: NewBatchTransient allocates %v objects, want <= %d", c.lanes, allocs, maxAllocs)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > c.maxBytes+slack {
			t.Errorf("lanes=%d: NewBatchTransient allocates %d bytes, want <= %d", c.lanes, bytes, c.maxBytes+slack)
		}
	}
}

// BenchmarkBatchStep measures the per-step cost of the multi-RHS
// engine on the calibrated zEC12 network at the production widths, and
// at width 3 for the generic solve walk every other width takes. The
// interesting ratio is ns/op at width 8 versus 8x width 1: the shared
// plan walk and the eight independent dependency chains in the solve
// should make the batch substantially cheaper than eight single
// steps. The AllocsPerRun guard above keeps the loop at 0 allocs/step.
func BenchmarkBatchStep(b *testing.B) {
	for _, lanes := range []int{1, 3, 4, 8, 16} {
		b.Run(fmt.Sprintf("Lanes%d", lanes), func(b *testing.B) { benchBatchStep(b, lanes) })
	}
	// The same steps on the pure-Go solve bodies, the other input of
	// AutoBatchLanes.
	if useSolveAVX2 {
		defer func() { useSolveAVX2 = true }()
		useSolveAVX2 = false
		for _, lanes := range []int{DefaultBatchLanes, WideBatchLanes} {
			b.Run(fmt.Sprintf("Go%d", lanes), func(b *testing.B) { benchBatchStep(b, lanes) })
		}
	}
}

// benchBatchStep times one lockstep step of the zEC12 network at the
// given width, each lane driving its six cores with its own waveform.
func benchBatchStep(b *testing.B, lanes int) {
	cur := 0
	ckt := zec12WithLaneLoads(&cur)
	bt, err := NewBatchTransient(ckt, 2e-9, lanes, laneFill(ckt, &cur))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// zec12WithLaneLoads builds the calibrated zEC12 network with core i
// drawing batchWave(*lane) scaled by i+1: a batch points lane at each
// lane in turn through laneFill, a single-lane run at a fixed value.
func zec12WithLaneLoads(lane *int) *Circuit {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	for i := range nodes.Core {
		scale := float64(i + 1)
		ckt.AddLoad("core", nodes.Core[i], func(tm float64) float64 {
			return batchWave(*lane)(tm) * scale
		})
	}
	return ckt
}
