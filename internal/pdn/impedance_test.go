package pdn

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestImpedanceOfResistor(t *testing.T) {
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddResistor("r", src, out, 2.5)
	for _, f := range []float64{1, 1e3, 1e6} {
		z, err := ckt.Impedance(out, f)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(z-2.5) > 1e-9 {
			t.Errorf("Z(%g) = %v, want 2.5", f, z)
		}
	}
}

func TestImpedanceOfCapacitor(t *testing.T) {
	ckt := NewCircuit()
	out := ckt.Node("out")
	ckt.AddCapacitor("c", out, Ground, 1e-6, 0)
	f := 1e3
	z, err := ckt.Impedance(out, f)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (2 * math.Pi * f * 1e-6)
	if math.Abs(cmplx.Abs(z)-want) > 1e-6*want {
		t.Errorf("|Z| = %g, want %g", cmplx.Abs(z), want)
	}
	// Capacitive phase: -90 degrees.
	if ph := cmplx.Phase(z); math.Abs(ph+math.Pi/2) > 1e-9 {
		t.Errorf("phase = %g, want -pi/2", ph)
	}
}

func TestImpedanceOfInductorToGroundViaSource(t *testing.T) {
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddInductor("l", src, out, 1e-9)
	f := 1e6
	z, err := ckt.Impedance(out, f)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * math.Pi * f * 1e-9
	if math.Abs(cmplx.Abs(z)-want) > 1e-9 {
		t.Errorf("|Z| = %g, want %g", cmplx.Abs(z), want)
	}
	if ph := cmplx.Phase(z); math.Abs(ph-math.Pi/2) > 1e-9 {
		t.Errorf("phase = %g, want pi/2", ph)
	}
}

func TestImpedanceTankPeaksAtResonance(t *testing.T) {
	// Parallel LC tank from the observation node: L to source, C to
	// ground; impedance peaks at fr = 1/(2*pi*sqrt(LC)).
	const l, c = 1e-9, 1e-6 // fr ~ 5.03 MHz
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddResistor("r", src, ckt.Node("mid"), 1e-3)
	ckt.AddInductor("l", ckt.Node("mid"), out, l)
	ckt.AddCapacitor("c", out, Ground, c, 0)
	fr := 1 / (2 * math.Pi * math.Sqrt(l*c))
	prof, err := ckt.ImpedanceProfile(out, LogSpace(fr/100, fr*100, 401))
	if err != nil {
		t.Fatal(err)
	}
	peaks := Peaks(prof)
	if len(peaks) == 0 {
		t.Fatal("no impedance peak found")
	}
	if math.Abs(peaks[0].Freq-fr)/fr > 0.05 {
		t.Errorf("peak at %g, want ~%g", peaks[0].Freq, fr)
	}
}

func TestImpedanceProfileEmptyFreqs(t *testing.T) {
	// An empty frequency list is a degenerate but legal request: an
	// empty non-nil profile, no error, and Peaks copes with it.
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddResistor("r", src, out, 1)
	for _, freqs := range [][]float64{nil, {}} {
		prof, err := ckt.ImpedanceProfile(out, freqs)
		if err != nil {
			t.Fatalf("ImpedanceProfile(%v): %v", freqs, err)
		}
		if prof == nil || len(prof) != 0 {
			t.Errorf("ImpedanceProfile(%v) = %v, want empty non-nil", freqs, prof)
		}
		if peaks := Peaks(prof); len(peaks) != 0 {
			t.Errorf("Peaks of empty profile = %v", peaks)
		}
	}
}

func TestImpedanceProfileStopsAtFirstBadFreq(t *testing.T) {
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddResistor("r", src, out, 1)
	if _, err := ckt.ImpedanceProfile(out, []float64{1e3, 0, 1e6}); err == nil {
		t.Error("expected error for profile containing f=0")
	}
}

func TestImpedanceProfileL3BridgeOff(t *testing.T) {
	// With the L3 bridge ablated the circuit stays solvable (the L3
	// hangs off the package through r.l3iso) and the core-grid
	// impedance rises in the mid band: the eDRAM decap no longer damps
	// the cores.
	freqs := LogSpace(100e3, 10e6, 31)
	prof := func(bridge bool) []ImpedancePoint {
		cfg := DefaultZEC12Config()
		cfg.L3Bridge = bridge
		c, nodes := ZEC12(cfg)
		p, err := c.ImpedanceProfile(nodes.Core[0], freqs)
		if err != nil {
			t.Fatalf("L3Bridge=%v: %v", bridge, err)
		}
		return p
	}
	on, off := prof(true), prof(false)
	worse := 0
	for i := range freqs {
		if off[i].Mag() > on[i].Mag() {
			worse++
		}
	}
	if worse < len(freqs)/2 {
		t.Errorf("L3 ablation raised |Z| at only %d/%d mid-band points", worse, len(freqs))
	}
}

// TestImpedanceProfileMatchesPointSolves pins the profile's reused
// buffers to the one-off solve: every point must equal Impedance at
// that frequency bit for bit, and the profile's allocation count must
// not grow with its length.
func TestImpedanceProfileMatchesPointSolves(t *testing.T) {
	c, nodes := ZEC12(DefaultZEC12Config())
	freqs := LogSpace(10e3, 100e6, 41)
	prof, err := c.ImpedanceProfile(nodes.Core[0], freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freqs {
		z, err := c.Impedance(nodes.Core[0], f)
		if err != nil {
			t.Fatal(err)
		}
		if prof[i].Freq != f || prof[i].Z != z {
			t.Errorf("point %d: %v, Impedance gives %v at %g Hz", i, prof[i], z, f)
		}
	}
	allocs := func(freqs []float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := c.ImpedanceProfile(nodes.Core[0], freqs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(freqs[:2]), allocs(freqs); long != short {
		t.Errorf("ImpedanceProfile: %.0f allocs for %d points, %.0f for 2", long, len(freqs), short)
	}
}

func TestDomainOfClusters(t *testing.T) {
	// The two on-die domains: even cores form one, odd cores the
	// other, and ClusterOf agrees with DomainOf everywhere.
	wantDomain := [NumCores]int{0, 1, 0, 1, 0, 1}
	for core := 0; core < NumCores; core++ {
		if got := DomainOf(core); got != wantDomain[core] {
			t.Errorf("DomainOf(%d) = %d, want %d", core, got, wantDomain[core])
		}
		cluster := ClusterOf(core)
		found := false
		for _, m := range cluster {
			if m == core {
				found = true
			}
			if DomainOf(m) != DomainOf(core) {
				t.Errorf("ClusterOf(%d) contains %d from domain %d", core, m, DomainOf(m))
			}
		}
		if !found {
			t.Errorf("ClusterOf(%d) = %v does not contain the core itself", core, cluster)
		}
	}
	if ClusterOf(2) != [3]int{0, 2, 4} || ClusterOf(5) != [3]int{1, 3, 5} {
		t.Errorf("clusters not ascending: %v %v", ClusterOf(2), ClusterOf(5))
	}
}

func TestImpedanceErrors(t *testing.T) {
	ckt := NewCircuit()
	src, out := ckt.Node("src"), ckt.Node("out")
	ckt.FixNode(src, 1)
	ckt.AddResistor("r", src, out, 1)
	if _, err := ckt.Impedance(out, 0); err == nil {
		t.Error("expected error for f=0")
	}
	if _, err := ckt.Impedance(src, 1e3); err == nil {
		t.Error("expected error for fixed node")
	}
	if _, err := ckt.TransferImpedance(out, src, 1e3); err == nil {
		t.Error("expected error for fixed node in transfer")
	}
	if _, err := ckt.TransferImpedance(out, out, -5); err == nil {
		t.Error("expected error for negative frequency")
	}
}

func TestTransferImpedanceReciprocity(t *testing.T) {
	// Reciprocal RLC networks satisfy Z(a,b) == Z(b,a).
	c, nodes := ZEC12(DefaultZEC12Config())
	for _, f := range []float64{10e3, 2e6, 30e6} {
		zab, err := c.TransferImpedance(nodes.Core[0], nodes.Core[3], f)
		if err != nil {
			t.Fatal(err)
		}
		zba, err := c.TransferImpedance(nodes.Core[3], nodes.Core[0], f)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(zab-zba) > 1e-9*(1+cmplx.Abs(zab)) {
			t.Errorf("reciprocity violated at %g Hz: %v vs %v", f, zab, zba)
		}
	}
}

// Property: self impedance equals transfer impedance with observe ==
// inject, and transfer magnitude never exceeds the larger self
// impedance at the two nodes (passivity of the coupling).
func TestTransferBoundedBySelfProperty(t *testing.T) {
	c, nodes := ZEC12(DefaultZEC12Config())
	f := func(fi uint16, a8, b8 uint8) bool {
		freq := 1e3 * math.Pow(10, float64(fi%400)/100) // 1kHz..10MHz
		a := nodes.Core[int(a8)%NumCores]
		b := nodes.Core[int(b8)%NumCores]
		zaa, err := c.Impedance(a, freq)
		if err != nil {
			return false
		}
		zab, err := c.TransferImpedance(a, b, freq)
		if err != nil {
			return false
		}
		if a == b {
			return cmplx.Abs(zaa-zab) < 1e-12+1e-9*cmplx.Abs(zaa)
		}
		zbb, err := c.Impedance(b, freq)
		if err != nil {
			return false
		}
		lim := math.Max(cmplx.Abs(zaa), cmplx.Abs(zbb))
		return cmplx.Abs(zab) <= lim*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPeaksSortedDescending(t *testing.T) {
	prof := []ImpedancePoint{
		{Freq: 1, Z: 1}, {Freq: 2, Z: 3}, {Freq: 3, Z: 1},
		{Freq: 4, Z: 5}, {Freq: 5, Z: 2}, {Freq: 6, Z: 4}, {Freq: 7, Z: 0},
	}
	peaks := Peaks(prof)
	if len(peaks) != 3 {
		t.Fatalf("peaks = %d, want 3", len(peaks))
	}
	if peaks[0].Freq != 4 || peaks[1].Freq != 6 || peaks[2].Freq != 2 {
		t.Errorf("peak order = %v", peaks)
	}
}

func TestPeaksEmptyAndMonotonic(t *testing.T) {
	if p := Peaks(nil); len(p) != 0 {
		t.Errorf("Peaks(nil) = %v", p)
	}
	mono := []ImpedancePoint{{1, 1}, {2, 2}, {3, 3}}
	if p := Peaks(mono); len(p) != 0 {
		t.Errorf("Peaks(monotonic) = %v", p)
	}
}
