package skitter

import (
	"math"
	"math/rand"
	"testing"
)

// slowMacro builds a reference macro with the sticky fast path and the
// piecewise table disabled, so every Sample takes the full exact
// evaluation path.
func slowMacro(t testing.TB, cfg Config) *Macro {
	t.Helper()
	m, err := NewMacro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.mono = false
	m.tabAfter = 0
	return m
}

// tableMacro builds a macro with the piecewise table engaged from the
// first sample, so tests exercise the certified path without waiting
// out the lazy-build countdown.
func tableMacro(t testing.TB, cfg Config) *Macro {
	t.Helper()
	m, err := NewMacro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.tabAfter = 0
	m.tab = gTableFor(cfg.VThreshold, cfg.Alpha)
	if m.tab == nil {
		t.Fatal("table cache refused to build (cap reached)")
	}
	return m
}

// sameState fails unless the two macros hold identical observable and
// stream state: sticky range, sample count, and jitter rng.
func sameState(t *testing.T, label string, i int, fast, slow *Macro) {
	t.Helper()
	if fast.minPos != slow.minPos || fast.maxPos != slow.maxPos {
		t.Fatalf("%s sample %d: fast range [%d,%d], slow [%d,%d]",
			label, i, fast.minPos, fast.maxPos, slow.minPos, slow.maxPos)
	}
	if fast.samples != slow.samples {
		t.Fatalf("%s sample %d: fast samples %d, slow %d", label, i, fast.samples, slow.samples)
	}
	if fast.rng != slow.rng {
		t.Fatalf("%s sample %d: fast rng %x, slow %x — jitter streams diverged", label, i, fast.rng, slow.rng)
	}
}

// voltageWalks returns sample sequences that exercise the fast path's
// edge cases: a settled waveform (long safe stretches), a random walk
// (interval keeps ratcheting), threshold crossings (the flat region of
// the edge-position curve), and values parked exactly on rounding
// boundaries.
func voltageWalks(cfg Config, n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(99))
	osc := make([]float64, n)
	for i := range osc {
		osc[i] = cfg.Vnom - 0.03 + 0.025*math.Sin(float64(i)/7) + 0.002*math.Sin(float64(i)/3)
	}
	walk := make([]float64, n)
	v := cfg.Vnom
	for i := range walk {
		v += 0.004 * (rng.Float64() - 0.5)
		walk[i] = v
	}
	cross := make([]float64, n)
	for i := range cross {
		cross[i] = cfg.VThreshold + 0.2*rng.Float64() - 0.05 // some below threshold
	}
	settle := make([]float64, n)
	for i := range settle {
		settle[i] = cfg.Vnom - 0.01 // constant: the fast path's best case
	}
	return map[string][]float64{"osc": osc, "walk": walk, "cross": cross, "settle": settle}
}

// TestFastPathBitIdentical: with the safe-interval fast path on, every
// macro state transition matches the full evaluation path bit for bit,
// across configs covering jitter on/off, alpha exactly 1, process-gain
// variation, and a short line.
func TestFastPathBitIdentical(t *testing.T) {
	cfgs := map[string]Config{"default": DefaultConfig()}
	c := DefaultConfig()
	c.Jitter = 0
	cfgs["nojitter"] = c
	c = DefaultConfig()
	c.Alpha = 1.0
	cfgs["alpha1"] = c
	c = DefaultConfig()
	c.Gain = 1.37
	cfgs["gain"] = c
	c = DefaultConfig()
	c.Taps = 17
	cfgs["short"] = c

	for name, cfg := range cfgs {
		for wname, vs := range voltageWalks(cfg, 4000) {
			fast, err := NewMacro(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tabbed := tableMacro(t, cfg)
			slow := slowMacro(t, cfg)
			label := name + "/" + wname
			for i, v := range vs {
				fast.Sample(v)
				tabbed.Sample(v)
				slow.Sample(v)
				sameState(t, label, i, fast, slow)
				sameState(t, label+"/table", i, tabbed, slow)
			}
			if fast.samples > 0 {
				if f, s := fast.PeakToPeakPercent(), slow.PeakToPeakPercent(); f != s {
					t.Fatalf("%s: fast p2p %g, slow %g", label, f, s)
				}
				if f, s := tabbed.PeakToPeakPercent(), slow.PeakToPeakPercent(); f != s {
					t.Fatalf("%s: table p2p %g, slow %g", label, f, s)
				}
			}
		}
	}
}

// TestFastPathEngages: on the production config and a settled
// waveform, the safe interval must actually form — otherwise the fast
// path is dead weight.
func TestFastPathEngages(t *testing.T) {
	m, err := NewMacro(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Sample(1.03 + 0.001*math.Sin(float64(i)/5))
	}
	if m.vLo > m.vHi {
		t.Fatal("safe interval never formed on a settled waveform")
	}
}

// TestFastPathResetClears: Reset must clear the safe interval along
// with the sticky state, or a pooled macro would skip real samples of
// the next window.
func TestFastPathResetClears(t *testing.T) {
	m, err := NewMacro(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Sample(1.03)
	}
	m.Reset()
	if !math.IsInf(m.vLo, 1) || !math.IsInf(m.vHi, -1) {
		t.Fatalf("Reset left safe interval [%g, %g]", m.vLo, m.vHi)
	}
}

// TestFastPathAlphaBelowOneDisabled: the monotonicity argument needs
// Alpha >= 1; below it the ratchet must stay off.
func TestFastPathAlphaBelowOneDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 0.9
	m, err := NewMacro(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		m.Sample(1.03 + 0.001*math.Sin(float64(i)/5))
	}
	if m.vLo <= m.vHi {
		t.Fatal("safe interval formed despite Alpha < 1")
	}
}

// TestTablePathEngages: on the production config the certified table
// evaluation must actually complete samples away from rounding
// boundaries — otherwise the table is dead weight and every sample
// still pays for math.Pow.
func TestTablePathEngages(t *testing.T) {
	m := tableMacro(t, DefaultConfig())
	completed := 0
	for i := 0; i < 1000; i++ {
		v := 1.01 + 0.0001*float64(i%7)
		jit := 0.3 * float64(i%5-2)
		if m.sampleTable(m.tab, v, jit) {
			completed++
		}
	}
	if completed < 900 {
		t.Fatalf("table path completed only %d of 1000 samples", completed)
	}
}

// TestTableLazyBuild: a fresh macro must not touch the table until the
// lazy countdown of full evaluations elapses, then hold it thereafter.
func TestTableLazyBuild(t *testing.T) {
	m, err := NewMacro(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.mono = false // keep every sample on the slow path
	for i := 0; i < 63; i++ {
		m.Sample(1.0 + 0.01*float64(i%11))
	}
	if m.tab != nil {
		t.Fatal("table built before the countdown elapsed")
	}
	m.Sample(1.0)
	if m.tab == nil {
		t.Fatal("table never built after 64 full evaluations")
	}
}

// BenchmarkSample measures the per-cycle sampling cost on a settled
// waveform (fast path hot) versus a waveform that never settles (fast
// path cold), with the cold case split by whether the certified table
// or the exact math.Pow evaluation runs.
func BenchmarkSample(b *testing.B) {
	cfg := DefaultConfig()
	b.Run("Settled", func(b *testing.B) {
		m, err := NewMacro(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			m.Sample(1.03)
		}
	})
	b.Run("ColdTable", func(b *testing.B) {
		m := tableMacro(b, cfg)
		m.mono = false
		for i := 0; i < b.N; i++ {
			m.Sample(1.03)
		}
	})
	b.Run("ColdExact", func(b *testing.B) {
		m, err := NewMacro(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.mono = false
		m.tabAfter = 0
		for i := 0; i < b.N; i++ {
			m.Sample(1.03)
		}
	})
}
