package pdn

import (
	"math"
	"testing"
)

func TestDomainAndCluster(t *testing.T) {
	if DomainOf(0) != 0 || DomainOf(2) != 0 || DomainOf(4) != 0 {
		t.Error("even cores should be domain 0")
	}
	if DomainOf(1) != 1 || DomainOf(3) != 1 || DomainOf(5) != 1 {
		t.Error("odd cores should be domain 1")
	}
	if ClusterOf(2) != [3]int{0, 2, 4} {
		t.Errorf("ClusterOf(2) = %v", ClusterOf(2))
	}
	if ClusterOf(5) != [3]int{1, 3, 5} {
		t.Errorf("ClusterOf(5) = %v", ClusterOf(5))
	}
}

func TestZEC12ConfigValidation(t *testing.T) {
	cfg := DefaultZEC12Config()
	cfg.Vnom = 0
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero Vnom")
		}
	}()
	ZEC12(cfg)
}

func TestZEC12ResonantBands(t *testing.T) {
	c, nodes := ZEC12(DefaultZEC12Config())
	prof, err := c.ImpedanceProfile(nodes.Core[0], LogSpace(1e3, 100e6, 400))
	if err != nil {
		t.Fatal(err)
	}
	peaks := Peaks(prof)
	if len(peaks) < 2 {
		t.Fatalf("expected >= 2 resonant peaks, got %d", len(peaks))
	}
	var haveMid, haveDroop bool
	for _, p := range peaks[:2] {
		switch {
		case p.Freq > 15e3 && p.Freq < 80e3:
			haveMid = true
		case p.Freq > 1e6 && p.Freq < 5e6:
			haveDroop = true
		}
	}
	if !haveMid {
		t.Errorf("no mid-frequency (~40kHz) band in top peaks: %+v", peaks[:2])
	}
	if !haveDroop {
		t.Errorf("no first-droop (~2MHz) band in top peaks: %+v", peaks[:2])
	}
}

func TestZEC12NoOscillationAbove5MHz(t *testing.T) {
	// The paper: "there is no longer an oscillatory power noise
	// behavior at frequencies above 5 MHz". The impedance profile must
	// be low and falling beyond 5 MHz relative to the droop band.
	c, nodes := ZEC12(DefaultZEC12Config())
	zDroop, err := c.Impedance(nodes.Core[0], 2e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{6e6, 10e6, 20e6, 50e6} {
		z, err := c.Impedance(nodes.Core[0], f)
		if err != nil {
			t.Fatal(err)
		}
		if mag(z) > 0.6*mag(zDroop) {
			t.Errorf("|Z(%g)| = %g not well below droop peak %g", f, mag(z), mag(zDroop))
		}
	}
}

func TestZEC12DeepTrenchAblation(t *testing.T) {
	// Removing the deep-trench capacitance (x1/40) must move the first
	// droop band to much higher frequency, as the paper describes for
	// pre-eDRAM designs (30-100 MHz).
	cfg := DefaultZEC12Config()
	cfg.DeepTrenchFactor = 1.0 / 40
	c, nodes := ZEC12(cfg)
	prof, err := c.ImpedanceProfile(nodes.Core[0], LogSpace(100e3, 500e6, 400))
	if err != nil {
		t.Fatal(err)
	}
	peaks := Peaks(prof)
	if len(peaks) == 0 {
		t.Fatal("no peaks")
	}
	// The highest-frequency significant peak must sit above 5 MHz.
	var droopFreq float64
	for _, p := range peaks {
		if p.Freq > droopFreq && p.Mag() > 0.3e-3 {
			droopFreq = p.Freq
		}
	}
	if droopFreq < 5e6 {
		t.Errorf("ablated first droop at %g, want > 5 MHz", droopFreq)
	}
}

func TestZEC12DCDistribution(t *testing.T) {
	c, nodes := ZEC12(DefaultZEC12Config())
	for i := 0; i < NumCores; i++ {
		node := nodes.Core[i]
		c.AddLoad("core", node, func(float64) float64 { return 10 })
	}
	tr, err := NewTransient(c, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric load: all core voltages equal, below Vnom by the IR
	// drop, and all positive.
	v0 := tr.Voltage(nodes.Core[0])
	if v0 >= 1.05 || v0 < 0.9 {
		t.Errorf("core0 DC = %g, expected (0.9, 1.05)", v0)
	}
	for i := 1; i < NumCores; i++ {
		vi := tr.Voltage(nodes.Core[i])
		if math.Abs(vi-v0) > 1e-9 {
			t.Errorf("core%d DC = %g, core0 = %g (should be symmetric)", i, vi, v0)
		}
	}
}

func TestZEC12ClusterCoupling(t *testing.T) {
	// A load step on core 0 must droop its cluster mates (2, 4) more
	// than the opposite cluster (1, 3, 5): the paper's Figure 13b.
	c, nodes := ZEC12(DefaultZEC12Config())
	for i := 0; i < NumCores; i++ {
		i := i
		c.AddLoad("core", nodes.Core[i], func(tm float64) float64 {
			if i == 0 && tm > 0.2e-6 {
				return 25
			}
			return 5
		})
	}
	tr, err := NewTransient(c, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	probes := []NodeID{nodes.Core[0], nodes.Core[1], nodes.Core[2], nodes.Core[3], nodes.Core[4], nodes.Core[5]}
	traces, err := tr.Run(5e-6, probes)
	if err != nil {
		t.Fatal(err)
	}
	p2p := make([]float64, NumCores)
	for i := range traces {
		p2p[i] = traces[i].PeakToPeak()
	}
	if !(p2p[0] > p2p[2] && p2p[2] > p2p[1]) {
		t.Errorf("expected p2p core0 > core2 > core1, got %v", p2p)
	}
	if !(p2p[4] > p2p[1] && p2p[4] > p2p[3] && p2p[4] > p2p[5]) {
		t.Errorf("cluster mate core4 should exceed all opposite-cluster cores: %v", p2p)
	}
}

func TestZEC12L3BridgeAblation(t *testing.T) {
	// Without the L3 bridge the inter-cluster separation must widen:
	// the L3 couples (and damps) the clusters, so removing it makes
	// the opposite cluster relatively quieter.
	run := func(bridge bool) (same, opp float64) {
		cfg := DefaultZEC12Config()
		cfg.L3Bridge = bridge
		c, nodes := ZEC12(cfg)
		for i := 0; i < NumCores; i++ {
			i := i
			c.AddLoad("core", nodes.Core[i], func(tm float64) float64 {
				if i == 0 && tm > 0.2e-6 {
					return 25
				}
				return 5
			})
		}
		tr, err := NewTransient(c, 2e-9)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := tr.Run(5e-6, []NodeID{nodes.Core[2], nodes.Core[1]})
		if err != nil {
			t.Fatal(err)
		}
		return traces[0].PeakToPeak(), traces[1].PeakToPeak()
	}
	sameB, oppB := run(true)
	sameN, oppN := run(false)
	ratioBridge := sameB / oppB
	ratioNo := sameN / oppN
	if ratioNo <= ratioBridge {
		t.Errorf("expected wider cluster separation without L3 bridge: with=%.4f without=%.4f", ratioBridge, ratioNo)
	}
}

func TestZEC12TransientMatchesImpedanceAtResonance(t *testing.T) {
	// Drive a sinusoidal load at the droop resonance and verify the
	// steady-state voltage amplitude matches |Z| * I within tolerance.
	cfg := DefaultZEC12Config()
	c, nodes := ZEC12(cfg)
	const f0 = 2e6
	const amp = 10.0
	for i := 0; i < NumCores; i++ {
		i := i
		c.AddLoad("core", nodes.Core[i], func(tm float64) float64 {
			if i != 0 {
				return 0
			}
			return amp * (1 + math.Sin(2*math.Pi*f0*tm)) / 2
		})
	}
	z, err := c.Impedance(nodes.Core[0], f0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTransient(c, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up several periods, then measure.
	if err := tr.RunUntil(20 / f0); err != nil {
		t.Fatal(err)
	}
	traces, err := tr.Run(5/f0, []NodeID{nodes.Core[0]})
	if err != nil {
		t.Fatal(err)
	}
	gotAmp := traces[0].PeakToPeak() / 2
	wantAmp := mag(z) * amp / 2
	if math.Abs(gotAmp-wantAmp)/wantAmp > 0.1 {
		t.Errorf("steady-state amplitude %g, want %g (|Z|=%g)", gotAmp, wantAmp, mag(z))
	}
}

func mag(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

func TestResonantEstimatesMatchMeasuredPeaks(t *testing.T) {
	cfg := DefaultZEC12Config()
	mid, droop := cfg.ResonantEstimates()
	c, nodes := ZEC12(cfg)
	prof, err := c.ImpedanceProfile(nodes.Core[0], LogSpace(1e3, 100e6, 400))
	if err != nil {
		t.Fatal(err)
	}
	peaks := Peaks(prof)
	if len(peaks) < 2 {
		t.Fatal("fewer than 2 peaks")
	}
	// Identify measured bands.
	var measMid, measDroop float64
	for _, p := range peaks[:2] {
		if p.Freq < 200e3 {
			measMid = p.Freq
		} else {
			measDroop = p.Freq
		}
	}
	if measMid == 0 || measDroop == 0 {
		t.Fatalf("bands not found: %+v", peaks[:2])
	}
	// The analytic estimates sit within a factor ~2.5 of the measured
	// peaks (the rest of the network de-tunes them).
	if ratio := measMid / mid; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("mid band: measured %g vs estimate %g", measMid, mid)
	}
	if ratio := measDroop / droop; ratio < 0.4 || ratio > 2.5 {
		t.Errorf("droop band: measured %g vs estimate %g", measDroop, droop)
	}
}

func TestResonantFrequency(t *testing.T) {
	// 1 nH with ~6.33 uF resonates near 2 MHz.
	if f := resonantFrequency(1e-9, 6.33e-6); f < 1.9e6 || f > 2.1e6 {
		t.Errorf("resonant frequency = %g, want ~2MHz", f)
	}
}

func TestResonantFrequencyPanicsOnInvalid(t *testing.T) {
	for name, lc := range map[string][2]float64{
		"zero L":     {0, 1e-6},
		"negative C": {1e-9, -1e-6},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			resonantFrequency(lc[0], lc[1])
		}()
	}
}
