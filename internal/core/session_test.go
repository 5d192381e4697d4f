package core

import (
	"context"
	"math"
	"testing"

	"voltnoise/internal/pdn"
)

// oscWorkload is a 2MHz square wave: the noisiest simple stimulus, so
// reuse bugs that perturb circuit state show up in every observable.
func oscWorkload() Workload {
	return FuncWorkload{Label: "osc", Fn: func(t float64) float64 {
		if math.Mod(t, 0.5e-6) < 0.25e-6 {
			return 50
		}
		return 16
	}}
}

// identicalMeasurements compares every field of two measurements
// bit-for-bit (traces included).
func identicalMeasurements(t *testing.T, label string, got, want *Measurement) {
	t.Helper()
	for i := 0; i < NumCores; i++ {
		if got.P2P[i] != want.P2P[i] {
			t.Errorf("%s: core %d P2P %v != %v", label, i, got.P2P[i], want.P2P[i])
		}
		if got.PosMin[i] != want.PosMin[i] || got.PosMax[i] != want.PosMax[i] {
			t.Errorf("%s: core %d PosMin/PosMax differ", label, i)
		}
		if got.VMin[i] != want.VMin[i] || got.VMax[i] != want.VMax[i] {
			t.Errorf("%s: core %d VMin/VMax %v/%v != %v/%v",
				label, i, got.VMin[i], got.VMax[i], want.VMin[i], want.VMax[i])
		}
		if (got.Traces[i] == nil) != (want.Traces[i] == nil) {
			t.Fatalf("%s: core %d trace presence differs", label, i)
		}
		if got.Traces[i] != nil {
			for k, v := range got.Traces[i].Samples {
				if v != want.Traces[i].Samples[k] {
					t.Fatalf("%s: core %d trace sample %d: %v != %v",
						label, i, k, v, want.Traces[i].Samples[k])
				}
			}
		}
	}
	if got.ChipPowerMilliwatts != want.ChipPowerMilliwatts {
		t.Errorf("%s: chip power %d != %d", label, got.ChipPowerMilliwatts, want.ChipPowerMilliwatts)
	}
	if got.NominalPos != want.NominalPos {
		t.Errorf("%s: nominal pos %d != %d", label, got.NominalPos, want.NominalPos)
	}
}

// TestSessionReuseBitIdentical is the core session-reuse determinism
// guarantee: a sequence of heterogeneous runs on ONE width-1 session (changing
// workloads, windows and bias along the way) must be bit-identical to
// running each spec on a fresh platform.
func TestSessionReuseBitIdentical(t *testing.T) {
	cfg := DefaultConfig()
	s, err := NewBatchSession(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var osc [NumCores]Workload
	for i := range osc {
		osc[i] = oscWorkload()
	}
	var half [NumCores]Workload
	for i := 0; i < NumCores; i += 2 {
		half[i] = Steady("steady", 40)
	}
	seq := []struct {
		name string
		bias float64
		spec RunSpec
	}{
		{"osc", 1.0, RunSpec{Workloads: osc, Duration: 20e-6, Record: true}},
		{"idle", 1.0, RunSpec{Duration: 10e-6}},
		{"half-low-bias", 0.92, RunSpec{Workloads: half, Start: -5e-6, Duration: 15e-6}},
		{"osc-again", 1.0, RunSpec{Workloads: osc, Duration: 20e-6, Record: true}},
	}
	for _, tc := range seq {
		if err := s.SetVoltageBias(tc.bias); err != nil {
			t.Fatal(err)
		}
		got := runOne(t, s, tc.spec)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetVoltageBias(tc.bias); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, tc.name, got, want)
	}
}

// TestSessionPoolReuseMatchesFresh drains and reuses pooled sessions
// across bias changes and checks the recycled path stays bit-identical.
func TestSessionPoolReuseMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	pool := NewSessionPool(cfg)
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = oscWorkload()
	}
	spec := RunSpec{Workloads: wl, Duration: 10e-6}
	for _, bias := range []float64{1.0, 0.95, 1.0} {
		s, err := pool.GetBatch(bias, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := runOne(t, s, spec)
		pool.PutBatch(s)
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SetVoltageBias(bias); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		identicalMeasurements(t, "pooled", got, want)
	}
}

func TestSessionBiasQuantizationMatchesPlatform(t *testing.T) {
	s, err := NewBatchSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := New(DefaultConfig())
	for _, b := range []float64{0.913, 1.0499, 0.70, 1.10} {
		if err := s.SetVoltageBias(b); err != nil {
			t.Fatal(err)
		}
		if err := p.SetVoltageBias(b); err != nil {
			t.Fatal(err)
		}
		if s.LaneBias(0) != p.VoltageBias() {
			t.Errorf("bias %g: session %g != platform %g", b, s.LaneBias(0), p.VoltageBias())
		}
	}
	for _, b := range []float64{0.5, 1.2} {
		if err := s.SetVoltageBias(b); err == nil {
			t.Errorf("bias %g accepted", b)
		}
	}
}

func TestSessionRunValidation(t *testing.T) {
	s, err := NewBatchSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.RunBatchContext(ctx, []RunSpec{{Duration: 0}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := s.RunBatchContext(ctx, []RunSpec{{Duration: 1e-6, Warmup: -1}}); err == nil {
		t.Error("negative warmup accepted")
	}
}

func TestSessionRunContextCancel(t *testing.T) {
	s, err := NewBatchSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunBatchContext(ctx, []RunSpec{{Duration: 100e-6}}); err != context.Canceled {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	// The session must remain usable after a canceled run.
	if m := runOne(t, s, RunSpec{Duration: 5e-6}); m.ChipPowerMilliwatts <= 0 {
		t.Error("no chip power after recovery run")
	}
}

// TestSessionSteadyStateAllocs bounds the per-run allocations of a
// reused width-1 session: the hot path (warmup + measurement stepping)
// must not allocate at all, leaving only the Measurement result object
// and the returned slice.
func TestSessionSteadyStateAllocs(t *testing.T) {
	s, err := NewBatchSession(DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = Steady("steady", 30)
	}
	specs := []RunSpec{{Workloads: wl, Warmup: 1e-6, Duration: 2e-6}}
	if _, err := s.RunBatchContext(context.Background(), specs); err != nil { // prime
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.RunBatchContext(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
	})
	// One Measurement plus small constant overhead; the ~1900-step
	// integration itself must be allocation-free.
	if allocs > 4 {
		t.Errorf("steady-state Run allocates %v objects per run, want <= 4", allocs)
	}
}

// TestBenchShimsMatchBatch pins the width-1 entry points kept for the
// per-layer replays of the benchmark — pdn.NewTransientAt,
// NewSession(cfg).RunContext and SessionPool.Get/Put — bit-identical
// to the batch calls they stand for.
func TestBenchShimsMatchBatch(t *testing.T) {
	cfg := DefaultConfig()
	var wl [NumCores]Workload
	for i := range wl {
		wl[i] = oscWorkload()
	}
	spec := RunSpec{Workloads: wl, Duration: 10e-6, Record: true}
	want := runAlone(t, cfg, 1.0, cfg.CoreGain, spec)

	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	identicalMeasurements(t, "NewSession", got, want)

	pool := NewSessionPool(cfg)
	ps, err := pool.Get(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = ps.RunContext(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	pool.Put(ps)
	identicalMeasurements(t, "SessionPool.Get", got, want)
	if bs, err := pool.GetBatch(1.0, 1); err != nil {
		t.Fatal(err)
	} else if bs != ps.bs {
		t.Error("Put did not return the width-1 session to the pool")
	}

	mk := func() (*pdn.Circuit, pdn.NodeID) {
		c, nodes := pdn.ZEC12(cfg.PDN)
		c.AddLoad("core0", nodes.Core[0], oscWorkload().Power)
		return c, nodes.Core[0]
	}
	c1, n1 := mk()
	shim, err := pdn.NewTransientAt(c1, cfg.Dt, -1e-6)
	if err != nil {
		t.Fatal(err)
	}
	c2, n2 := mk()
	ref, err := pdn.NewBatchTransientAt(c2, cfg.Dt, -1e-6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := shim.Step(); err != nil {
			t.Fatal(err)
		}
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if got, want := shim.Voltage(0, n1), ref.Voltage(0, n2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pdn.NewTransientAt step %d: %v != %v", i, got, want)
		}
	}
}
