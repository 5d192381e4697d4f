package skitter

import (
	"math"
	"testing"
)

// FuzzSkitterSticky drives the full sticky-range state machine — safe
// interval, certified piecewise table, and exact alpha-power evaluation
// — through arbitrary configurations and voltage walks, and checks the
// three variants stay bit-identical sample for sample: same sticky
// range, same sample count, same jitter stream. This is the property
// the step-kernel fast paths are built on; any certification bug in the
// table (a rounding boundary crossed, a clamp missed, a ratchet fired
// unsafely) shows up as a state divergence here.
func FuzzSkitterSticky(f *testing.F) {
	f.Add(0.66, 1.3, 1.0, 1.0, []byte{0x00, 0x7f, 0xff, 0x40, 0x80, 0x20})
	f.Add(0.66, 1.0, 1.37, 0.0, []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70})
	f.Add(0.5, 2.0, 0.8, 2.5, []byte{0xff, 0x00, 0xff, 0x00})
	f.Add(0.9, 0.9, 1.0, 1.0, []byte{0x33, 0x66, 0x99, 0xcc})
	f.Add(0.66, 1.3, 1.0, 1.0, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, vthRaw, alphaRaw, gainRaw, jitterRaw float64, walk []byte) {
		// Fold the raw floats into valid Config ranges; reject the
		// leftovers Validate would refuse.
		cfg := DefaultConfig()
		cfg.VThreshold = 0.1 + math.Mod(math.Abs(vthRaw), 0.9)
		cfg.Alpha = 0.5 + math.Mod(math.Abs(alphaRaw), 2.5)
		cfg.Gain = 0.25 + math.Mod(math.Abs(gainRaw), 3)
		cfg.Jitter = math.Mod(math.Abs(jitterRaw), 4)
		cfg.Vnom = cfg.VThreshold + 0.4
		if !(cfg.VThreshold >= 0.1) || !(cfg.Alpha >= 0.5) || !(cfg.Gain >= 0.25) || !(cfg.Jitter >= 0) {
			t.Skip() // NaN raws collapse the folds
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		fast, err := NewMacro(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fast.tabAfter = 1 // engage the table on the second slow sample
		tabbed := &Macro{}
		*tabbed = *fast
		tabbed.tabAfter = 0
		tabbed.tab = buildGTable(cfg.VThreshold, cfg.Alpha) // bypass the capped cache
		exact := slowMacro(t, cfg)
		// Each byte is one voltage sample spanning deep droops through
		// overshoot, crossing the threshold and the rounding boundaries.
		for i, b := range walk {
			v := cfg.VThreshold - 0.1 + 0.8*float64(b)/255
			fast.Sample(v)
			tabbed.Sample(v)
			exact.Sample(v)
			sameState(t, "fast", i, fast, exact)
			sameState(t, "table", i, tabbed, exact)
		}
		if exact.samples > 0 {
			if f1, f2 := fast.PeakToPeakPercent(), exact.PeakToPeakPercent(); f1 != f2 {
				t.Fatalf("p2p diverged: fast %g, exact %g", f1, f2)
			}
		}
	})
}
