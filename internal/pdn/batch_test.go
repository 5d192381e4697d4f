package pdn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// TestBatchLanesMatchSingleLane drives every lane of a width-1 and a
// width-4 batch with a lane-distinct load through the fill and checks
// each lane stays bit-identical to a width-1 engine over that lane's
// circuit (its own load, nil fill) over thousands of steps — the core
// contract of the lockstep engine, with B=1 just another width.
func TestBatchLanesMatchSingleLane(t *testing.T) {
	for _, lanes := range []int{1, 4} {
		t.Run(fmt.Sprintf("width%d", lanes), func(t *testing.T) {
			for _, start := range []float64{0, -3e-6} {
				checkLanesMatchSingle(t, lanes, start)
			}
		})
	}
}

// checkLanesMatchSingle is TestBatchLanesMatchSingleLane at one width
// and start time.
func checkLanesMatchSingle(t *testing.T, lanes int, start float64) {
	bt, out := newBatchRLC(t, lanes, start)
	singles := make([]*BatchTransient, lanes)
	outs := make([]NodeID, lanes)
	for l := 0; l < lanes; l++ {
		ckt, o := rlcWithLoad(batchWave(l))
		tr, err := NewBatchTransientAt(ckt, 1e-9, start, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		singles[l], outs[l] = tr, o
	}
	for l := 0; l < lanes; l++ {
		if got, want := bt.Voltage(l, out), singles[l].Voltage(0, outs[l]); got != want {
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
			if got, want := bt.Voltage(l, out), singles[l].Voltage(0, outs[l]); got != want {
				t.Fatalf("start %g: step %d lane %d: %v != %v", start, i, l, got, want)
			}
		}
	}
	// Branch currents too — the companion state, not just the solved
	// potentials.
	for ei := 0; ei < 3; ei++ {
		for l := 0; l < lanes; l++ {
			if got, want := bt.BranchCurrent(l, ei), singles[l].BranchCurrent(0, ei); got != want {
				t.Fatalf("start %g: element %d lane %d current %v != %v", start, ei, l, got, want)
			}
		}
	}
}

// TestBatchLaneFixedMatchesRefixedSingle retunes each lane's supply to
// a different potential (the vmin bias-walk pattern) and checks every
// lane tracks a width-1 engine over a circuit fixed at that potential —
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
	singles := make([]*BatchTransient, lanes)
	outs := make([]NodeID, lanes)
	for l := 0; l < lanes; l++ {
		ckt, o := rlcWithLoad(batchWave(l))
		ckt.FixNode(ckt.Node("src"), 1.0-0.05*float64(l))
		tr, err := NewBatchTransientAt(ckt, 1e-9, 0, 1, nil)
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
			if got, want := bt.Voltage(l, out), singles[l].Voltage(0, outs[l]); got != want {
				t.Fatalf("step %d lane %d: %v != %v", i, l, got, want)
			}
		}
	}
}

// TestBatchSetLaneFixedRejects covers the argument validation: lanes
// out of range, nodes that are not fixed supplies, and ground, whose
// potential is always 0. A refused call changes nothing, so every
// lane's potentials after the next Reset are the ones it had before.
func TestBatchSetLaneFixedRejects(t *testing.T) {
	bt, out := newBatchRLC(t, 2, 0)
	before := slices.Clone(bt.x)
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
	if err := bt.SetLaneFixed(0, Ground, 0.5); err == nil {
		t.Error("SetLaneFixed on ground accepted")
	}
	if err := bt.Reset(0); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < bt.c.NumNodes(); n++ {
		for l := 0; l < bt.Lanes(); l++ {
			got, want := bt.Voltage(l, NodeID(n)), before[int(bt.xRow[n])*bt.Lanes()+l]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("node %q lane %d: %g after Reset, want %g", bt.c.NodeName(NodeID(n)), l, got, want)
			}
		}
	}
}

// TestZEC12GatherPlanSize pins the size of the zEC12 gather: of the
// twelve elements joining an unknown node to a fixed one, eleven join
// it to ground and add nothing, so the plan keeps one fixed-node
// contribution and 32 entries.
func TestZEC12GatherPlanSize(t *testing.T) {
	ckt, _ := ZEC12(DefaultZEC12Config())
	bt, err := NewBatchTransientAt(ckt, 2e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(bt.fixG); got != 1 {
		t.Errorf("%d fixed-node contributions, want 1", got)
	}
	if got := len(bt.gCol); got != 32 {
		t.Errorf("%d gather entries, want 32", got)
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
	if _, err := NewBatchTransientAt(ckt, 0, 0, 4, nil); err == nil {
		t.Error("zero timestep accepted")
	}
	if _, err := NewBatchTransientAt(ckt, 1e-9, 0, 0, nil); err == nil {
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
	bt, err := NewBatchTransientAt(zec12WithLaneLoads(&lane), 2e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check("zEC12 lanes=1", bt)
}

// TestBatchDivergenceLane pins how a step reports divergence, at the
// scalar width, the generic widths 3 and 5 and the register-blocked
// widths, on the AVX2 and on the pure-Go bodies: a fill that writes
// NaN or +Inf into one lane's load at step k fails exactly that step,
// at the time the fill was asked for, naming that lane, and no step
// before it fails. With two lanes poisoned the error names the higher
// one: the solve reports the highest lane holding a non-finite
// potential anywhere in the block.
func TestBatchDivergenceLane(t *testing.T) {
	const k = 5
	modes := []bool{false}
	if useSolveAVX2 {
		modes = append(modes, true)
	}
	defer func(v bool) { useSolveAVX2 = v }(useSolveAVX2)
	for _, vec := range modes {
		useSolveAVX2 = vec
		for _, lanes := range []int{1, 3, 4, 5, 8, 16} {
			sets := [][]int{{0}, {lanes - 1}, {lanes / 2}}
			if lanes > 1 {
				sets = append(sets, []int{0, lanes - 1}, []int{lanes / 2, lanes - 1}, []int{0, lanes / 2})
			}
			for _, poison := range []float64{math.NaN(), math.Inf(1)} {
				for _, bad := range sets {
					label := fmt.Sprintf("vector=%v lanes=%d poison=%v lanes %v", vec, lanes, poison, bad)
					checkDivergenceLane(t, label, lanes, k, poison, bad)
				}
			}
		}
	}
}

// checkDivergenceLane steps a zEC12 batch whose fill poisons one core
// load of each lane in bad at step k and checks the failure report.
func checkDivergenceLane(t *testing.T, label string, lanes, k int, poison float64, bad []int) {
	t.Helper()
	const dt = 2e-9
	ckt, nodes := ZEC12(DefaultZEC12Config())
	for i := range nodes.Core {
		ckt.AddLoad(fmt.Sprintf("core%d", i), nodes.Core[i], filledLoad)
	}
	calls, tk := 0, 0.0
	fill := func(tm float64, cur []float64) {
		for i := 0; i < NumCores; i++ {
			for l := 0; l < lanes; l++ {
				cur[i*lanes+l] = 20 + 5*math.Sin(2*math.Pi*2e6*tm+float64(i+l))
			}
		}
		if calls == k { // call 0 is the DC point, call s is step s
			tk = tm
			for j, l := range bad {
				cur[(2*j%NumCores)*lanes+l] = poison
			}
		}
		calls++
	}
	bt, err := NewBatchTransientAt(ckt, dt, 0, lanes, fill)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < k; s++ {
		if err := bt.Step(); err != nil {
			t.Fatalf("%s: step %d failed before the poisoned step: %v", label, s, err)
		}
	}
	err = bt.Step()
	if err == nil {
		t.Fatalf("%s: poisoned step %d did not fail", label, k)
	}
	want := fmt.Sprintf("pdn: integration diverged at t=%g (lane %d)", tk, slices.Max(bad))
	if err.Error() != want {
		t.Errorf("%s: error %q, want %q", label, err, want)
	}
	if math.Abs(tk-float64(k)*dt) > 1e-6*dt {
		t.Errorf("%s: poisoned at t=%g, want %g", label, tk, float64(k)*dt)
	}
}

// filledLoad is the Current of a load whose current an engine fill
// supplies; an engine with a fill never calls it.
func filledLoad(float64) float64 { panic("pdn: load evaluated by an engine with a fill") }

// TestNewBatchTransientAllocs pins the cost of building a zEC12 engine.
// Objects are pinned at today's 65 per engine at every width: the
// factors' pattern slices are sized by a counting pass, one allocation
// each, where growing them by append took 168; each factor keeps one
// nonzero pattern (a second, run-grouped plan took 12 more objects and
// 1,728 B); the step's index lists share one int32 and one float64
// allocation, and the solve block, the history sources, the fixed-node
// contributions and the load slab share one more (a separate node
// potential block, scatter map and per-plan-entry fixed-contribution
// blocks took 5 more objects and 11 KB at width 16); the DC seeding
// keeps each branch voltage in a local, not in a per-element block.
// Bytes are pinned at the measured 29,968, 33,292, 37,888 and 46,464
// at widths 1, 4, 8 and 16, plus slack for what the runtime allocates
// on its own while the builds run: the averaged reading moves by up
// to ~130 B from run to run. Population studies build engines per bin
// on every run, so construction allocation shows up end to end.
func TestNewBatchTransientAllocs(t *testing.T) {
	const (
		maxAllocs = 65
		slack     = 256
	)
	ckt, _ := ZEC12(DefaultZEC12Config())
	for _, c := range []struct {
		lanes    int
		maxBytes uint64
	}{{1, 29968}, {NarrowBatchLanes, 33292}, {DefaultBatchLanes, 37888}, {WideBatchLanes, 46464}} {
		build := func() {
			if _, err := NewBatchTransientAt(ckt, 2e-9, 0, c.lanes, nil); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(10, build); allocs > maxAllocs {
			t.Errorf("lanes=%d: NewBatchTransientAt allocates %v objects, want <= %d", c.lanes, allocs, maxAllocs)
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > c.maxBytes+slack {
			t.Errorf("lanes=%d: NewBatchTransientAt allocates %d bytes, want <= %d", c.lanes, bytes, c.maxBytes+slack)
		}
	}
}

// BenchmarkBatchStep measures the per-step cost of the multi-RHS
// engine on the calibrated zEC12 network at the production widths, and
// at width 3 for the generic body every other width takes. The loads
// come from one fill that writes the whole slab per step, as
// core.BatchSession's does, so the rows time the engine rather than
// one closure call per lane and load. The interesting ratio is ns/op
// at width 8 versus 8x width 1: the shared index walks and the eight
// independent dependency chains should make the batch substantially
// cheaper than eight single steps. The AllocsPerRun guard above keeps
// the loop at 0 allocs/step.
func BenchmarkBatchStep(b *testing.B) {
	for _, lanes := range []int{1, 3, 4, 8, 16} {
		b.Run(fmt.Sprintf("Lanes%d", lanes), func(b *testing.B) { benchBatchStep(b, lanes) })
	}
	// The same steps on the pure-Go step and solve bodies, the other
	// input of AutoBatchLanes.
	if useSolveAVX2 {
		defer func() { useSolveAVX2 = true }()
		useSolveAVX2 = false
		for _, lanes := range []int{DefaultBatchLanes, WideBatchLanes} {
			b.Run(fmt.Sprintf("Go%d", lanes), func(b *testing.B) { benchBatchStep(b, lanes) })
		}
	}
}

// benchBatchStep times one lockstep step of the zEC12 network at the
// given width. The loads are zec12WithLaneLoads' — core i of lane l
// draws batchWave(l) scaled by i+1 — written by slabFill.
func benchBatchStep(b *testing.B, lanes int) {
	const dt = 2e-9
	lane := 0
	bt, err := NewBatchTransientAt(zec12WithLaneLoads(&lane), dt, 0, lanes, slabFill(lanes, dt))
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

// slabFill is a one-call fill of zec12WithLaneLoads' loads at the
// given width whose cost is negligible next to a step: lane l keeps
// batchWave(l)'s square wave as a count of dt-steps per half period,
// advanced one step per call instead of read off the clock, and
// writes its cores' scaled currents only when its level flips. The
// engine leaves the slab as the fill wrote it, so every other entry
// still holds its current.
func slabFill(lanes int, dt float64) func(t float64, cur []float64) {
	half, left := make([]int, lanes), make([]int, lanes)
	hi, w := make([]float64, lanes), make([]float64, lanes)
	for l := range half {
		half[l] = int(math.Round((0.4 + 0.1*float64(l)) * 1e-6 / dt))
		hi[l], w[l] = 2+0.5*float64(l), 0.5
	}
	return func(_ float64, cur []float64) {
		for l := range left {
			if left[l] == 0 { // the first call starts every lane high
				left[l] = half[l]
				if w[l] == hi[l] {
					w[l] = 0.5
				} else {
					w[l] = hi[l]
				}
				for i := 0; i < NumCores; i++ {
					cur[i*lanes+l] = w[l] * float64(i+1)
				}
			}
			left[l]--
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
