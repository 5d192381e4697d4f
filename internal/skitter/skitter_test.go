package skitter

import (
	"math"
	"testing"
	"testing/quick"
)

// edgePosition is the jitter-free tap position captured at supply
// voltage v, the value Sample records before dithering.
func edgePosition(c Config, v float64) int { return c.quantize(c.edgePositionF(v)) }

// observeSine samples n points of offset + amplitude·sin(2π·f·t) at
// interval dt from t = 0, a supply ringing at f.
func observeSine(m *Macro, dt float64, n int, f, amplitude, offset float64) {
	w := 2 * math.Pi * f
	for i := 0; i < n; i++ {
		m.Sample(offset + amplitude*math.Sin(w*(float64(i)*dt)))
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := map[string]func(Config) Config{
		"few taps":    func(c Config) Config { c.Taps = 1; return c },
		"zero delay":  func(c Config) Config { c.NominalDelay = 0; return c },
		"zero period": func(c Config) Config { c.ClockPeriod = 0; return c },
		"vnom <= vth": func(c Config) Config { c.Vnom = c.VThreshold; return c },
		"zero alpha":  func(c Config) Config { c.Alpha = 0; return c },
		"zero gain":   func(c Config) Config { c.Gain = 0; return c },
		"neg jitter":  func(c Config) Config { c.Jitter = -1; return c },
	}
	for name, mutate := range cases {
		if err := mutate(base).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestDelayAtNominalIsNominal(t *testing.T) {
	c := DefaultConfig()
	if got := c.Delay(c.Vnom); math.Abs(got-c.NominalDelay) > 1e-18 {
		t.Errorf("Delay(Vnom) = %g, want %g", got, c.NominalDelay)
	}
}

func TestDelayIncreasesAsVoltageDroops(t *testing.T) {
	c := DefaultConfig()
	prev := c.Delay(c.Vnom + 0.05)
	for v := c.Vnom; v > c.VThreshold+0.02; v -= 0.01 {
		d := c.Delay(v)
		if d <= prev {
			t.Fatalf("delay not monotonic: %g at %g vs %g", d, v, prev)
		}
		prev = d
	}
}

func TestDelayBelowThresholdIsInfinite(t *testing.T) {
	c := DefaultConfig()
	if !math.IsInf(c.Delay(c.VThreshold), 1) {
		t.Error("delay at threshold not infinite")
	}
	if !math.IsInf(c.Delay(0), 1) {
		t.Error("delay at zero not infinite")
	}
}

func TestEdgePositionDropsWithDroop(t *testing.T) {
	c := DefaultConfig()
	nom := edgePosition(c, c.Vnom)
	droop := edgePosition(c, c.Vnom*0.9)
	if droop >= nom {
		t.Errorf("position at 10%% droop %d >= nominal %d", droop, nom)
	}
	if nom < 10 || nom > c.Taps {
		t.Errorf("nominal position %d unreasonable for %d taps", nom, c.Taps)
	}
}

func TestEdgePositionClipping(t *testing.T) {
	c := DefaultConfig()
	if got := edgePosition(c, 0.5); got != 0 {
		t.Errorf("deep droop position = %d, want 0 (line stopped)", got)
	}
	// Very high overvoltage: position saturates at Taps.
	if got := edgePosition(c, 20); got != c.Taps {
		t.Errorf("overvoltage position = %d, want %d", got, c.Taps)
	}
}

func TestGainScalesDeviation(t *testing.T) {
	lo := DefaultConfig()
	hi := DefaultConfig()
	hi.Gain = 1.2
	v := lo.Vnom * 0.93
	nom := edgePosition(lo, lo.Vnom)
	devLo := nom - edgePosition(lo, v)
	devHi := nom - edgePosition(hi, v)
	if devHi <= devLo {
		t.Errorf("higher gain deviation %d <= nominal gain %d", devHi, devLo)
	}
	// Gain leaves the nominal position unchanged.
	if edgePosition(hi, hi.Vnom) != nom {
		t.Error("gain moved the nominal position")
	}
}

func TestMacroStickyAccumulation(t *testing.T) {
	m, err := NewMacro(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	m.Sample(cfg.Vnom)
	m.Sample(cfg.Vnom * 0.95)
	m.Sample(cfg.Vnom * 1.02)
	min, max := m.PositionRange()
	if min >= max {
		t.Errorf("range [%d, %d] not widened", min, max)
	}
	if m.samples != 3 {
		t.Errorf("samples = %d", m.samples)
	}
	p2p := m.PeakToPeakPercent()
	if p2p <= 0 {
		t.Errorf("p2p = %g", p2p)
	}
	m.Reset()
	if m.samples != 0 {
		t.Error("reset did not clear samples")
	}
}

func TestMacroPanicsWithoutSamples(t *testing.T) {
	m, _ := NewMacro(DefaultConfig())
	for name, fn := range map[string]func(){
		"PositionRange":     func() { m.PositionRange() },
		"PeakToPeakPercent": func() { m.PeakToPeakPercent() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNewMacroRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.Taps = 0
	if _, err := NewMacro(bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestConstantVoltageReadsJitterFloorOnly(t *testing.T) {
	// With jitter enabled, a flat supply reads the small jitter floor
	// (real skitters never read exactly zero); with jitter disabled it
	// reads exactly zero.
	m, _ := NewMacro(DefaultConfig())
	for i := 0; i < 1000; i++ {
		m.Sample(m.Config().Vnom)
	}
	floor := 2 * m.Config().Jitter / float64(m.Config().NominalPosition()) * 100
	if got := m.PeakToPeakPercent(); got > floor+1e-9 {
		t.Errorf("flat supply p2p = %g, want <= jitter floor %g", got, floor)
	}
	quiet := DefaultConfig()
	quiet.Jitter = 0
	mq, _ := NewMacro(quiet)
	for i := 0; i < 1000; i++ {
		mq.Sample(quiet.Vnom)
	}
	if got := mq.PeakToPeakPercent(); got != 0 {
		t.Errorf("jitter-free flat supply p2p = %g", got)
	}
}

func TestJitterDeterministic(t *testing.T) {
	read := func() float64 {
		m, _ := NewMacro(DefaultConfig())
		observeSine(m, 2e-9, 2000, 2e6, 0.03, m.Config().Vnom)
		return m.PeakToPeakPercent()
	}
	if a, b := read(), read(); a != b {
		t.Errorf("jittered readings differ across runs: %g vs %g", a, b)
	}
	// Reset restarts the dither stream: the same macro re-reads the
	// same value.
	m, _ := NewMacro(DefaultConfig())
	observeSine(m, 2e-9, 2000, 2e6, 0.03, m.Config().Vnom)
	first := m.PeakToPeakPercent()
	m.Reset()
	observeSine(m, 2e-9, 2000, 2e6, 0.03, m.Config().Vnom)
	if got := m.PeakToPeakPercent(); got != first {
		t.Errorf("reading after Reset %g != first %g", got, first)
	}
}

func TestDeeperDroopReadsHigherP2P(t *testing.T) {
	cfg := DefaultConfig()
	read := func(droopFrac float64) float64 {
		m, _ := NewMacro(cfg)
		observeSine(m, 2e-9, 5000, 2e6, cfg.Vnom*droopFrac/2, cfg.Vnom*(1-droopFrac/2))
		return m.PeakToPeakPercent()
	}
	small := read(0.02)
	big := read(0.10)
	if big <= small {
		t.Errorf("p2p(10%% droop) = %g <= p2p(2%% droop) = %g", big, small)
	}
}

// The calibration anchor: a ~10% Vdd peak-to-peak oscillation around
// Vnom must read in the tens of %p2p (the paper sees ~40-60% for its
// worst stressmarks). This pins the sensitivity of the delay line.
func TestP2PCalibrationBand(t *testing.T) {
	cfg := DefaultConfig()
	m, _ := NewMacro(cfg)
	observeSine(m, 2e-9, 5000, 2e6, cfg.Vnom*0.05, cfg.Vnom) // 10% p2p swing
	got := m.PeakToPeakPercent()
	if got < 25 || got > 90 {
		t.Errorf("10%% Vdd swing reads %g %%p2p, want 25-90", got)
	}
}

// Property: readings are monotone — widening the voltage excursion can
// never shrink the %p2p. (Jitter-free configuration: dither can move a
// two-sample reading by one tap either way.)
func TestP2PMonotoneProperty(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jitter = 0
	f := func(d1Raw, d2Raw uint8) bool {
		d1 := float64(d1Raw%120) / 1000 // 0..12% droop
		d2 := float64(d2Raw%120) / 1000
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		read := func(d float64) float64 {
			m, _ := NewMacro(cfg)
			m.Sample(cfg.Vnom)
			m.Sample(cfg.Vnom * (1 - d))
			return m.PeakToPeakPercent()
		}
		return read(d2) >= read(d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: %p2p saturates — the reading is bounded by the full line
// length regardless of input.
func TestP2PBoundedProperty(t *testing.T) {
	cfg := DefaultConfig()
	limit := float64(cfg.Taps) / float64(cfg.NominalPosition()) * 100
	f := func(vRaw []uint16) bool {
		if len(vRaw) == 0 {
			return true
		}
		m, _ := NewMacro(cfg)
		for _, r := range vRaw {
			m.Sample(float64(r) / 65535 * 2) // 0..2V
		}
		p := m.PeakToPeakPercent()
		return p >= 0 && p <= limit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
