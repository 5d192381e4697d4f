package stressmark

import (
	"math"
	"testing"

	"voltnoise/internal/isa"
	"voltnoise/internal/signal"
	"voltnoise/internal/tod"
	"voltnoise/internal/uarch"
)

// FuzzDidtHold checks didtWorkload.Hold against Power over engine
// clocks that start anywhere (negative times included) and advance by
// a fuzzed step: free-running marks at the unsynchronized per-core
// phases, and synchronized bursts nested in the wave at misaligned
// sync offsets, with edge times from ideal up to a whole period. At
// every step a fresh Hold(t) must return Power(t) bit for bit, and
// while t is short of the last hold's end, Power(t) — and Power at the
// last float64 before the end — must be the held sample bit for bit.
func FuzzDidtHold(f *testing.F) {
	f.Add(0.0, 2e-9, 2e6, 0.5, 2e-9, uint8(0), uint8(0), uint16(0), uint16(0), uint16(4000))
	f.Add(-2.5e-6, 2e-9, 2e6, 0.5, 2e-9, uint8(3), uint8(8), uint16(3), uint16(40), uint16(6000))
	f.Add(1e-4, 2e-9, 5e6, 0.3, 1e-7, uint8(5), uint8(6), uint16(61), uint16(7), uint16(8000))
	f.Add(3.3e-3, 7e-9, 1e7, 0.7, 1e-7, uint8(2), uint8(10), uint16(1000), uint16(300), uint16(8000))
	f.Add(-1e-3, 1e-8, 2.5e5, 0.5, 0.0, uint8(1), uint8(12), uint16(5), uint16(1), uint16(5000))
	f.Add(12.0, 2e-9, 1e6, 0.5, 2e-9, uint8(4), uint8(9), uint16(2), uint16(100), uint16(3000))
	table := isa.ZEC12Table()
	cfg := uarch.DefaultConfig()
	high := uarch.MustProgram("high", []*isa.Instruction{table.MustLookup("CHHSI"), table.MustLookup("CHHSI"), table.MustLookup("CIB")})
	low := SpinProgram(table)
	f.Fuzz(func(t *testing.T, t0, dt, freq, duty, edge float64, core, bits uint8, match, events, steps uint16) {
		ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !ok(t0) || math.Abs(t0) > 1e3 || !(dt >= 1e-12 && dt <= 1e-6) {
			t.Skip()
		}
		if !(freq >= 1e4 && freq <= 1e8) || !(duty > 0 && duty < 1) || !(edge >= 0 && edge <= 1/freq) {
			t.Skip()
		}
		spec := Spec{HighSeq: high, LowSeq: low, StimulusFreq: freq, Duty: duty, EdgeTime: edge,
			Phase: UnsyncPhases[int(core)%len(UnsyncPhases)] / freq}
		if bits%16 != 0 {
			// Synchronized: sync periods from 125 ns to 2 ms, bursts of
			// 1 to the whole period's worth of events, and the burst
			// start misaligned by match ticks.
			sync := tod.SyncCondition{Bits: uint(bits % 16)}
			sync = sync.Misalign(uint64(match))
			spec.Sync = &sync
			fit := int(sync.Period() * freq)
			if fit < 1 {
				t.Skip()
			}
			spec.Events = 1 + int(events)%fit
		}
		w, err := spec.lower(cfg, table)
		if err != nil {
			t.Skip()
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		p, until := 0.0, math.Inf(-1)
		tt := t0
		for s := 0; s < int(steps%8192); s++ {
			if tt < until {
				if v := w.Power(tt); !same(v, p) {
					t.Fatalf("%+v: t=%v inside the hold [.., %v): power %v, held %v", spec, tt, until, v, p)
				}
			} else {
				start := tt
				p, until = w.Hold(tt)
				if v := w.Power(tt); !same(v, p) {
					t.Fatalf("%+v: Hold(%v) = %v, Power = %v", spec, tt, p, v)
				}
				if until > start {
					last := math.Nextafter(until, math.Inf(-1))
					if v := w.Power(last); !same(v, p) {
						t.Fatalf("%+v: hold [%v, %v): power %v at its last instant, held %v", spec, start, until, v, p)
					}
				}
			}
			tt += dt
		}
	})
}

// TestDidtHoldSpansSpinWait: in a synchronized mark's spin wait the
// hold runs to the next burst start, less the guard, so the fill skips
// the whole wait.
func TestDidtHoldSpansSpinWait(t *testing.T) {
	table := isa.ZEC12Table()
	cfg := uarch.DefaultConfig()
	high := uarch.MustProgram("high", []*isa.Instruction{table.MustLookup("CHHSI"), table.MustLookup("CIB")})
	sync := tod.SyncCondition{Bits: 8} // 16 us sync period
	spec := Spec{HighSeq: high, LowSeq: SpinProgram(table), StimulusFreq: 2e6, Duty: 0.5, Sync: &sync, Events: 4}
	w, err := spec.lower(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	p, until := w.Hold(5e-6) // bursts end at 2 us
	if p != w.spin || math.Abs(until-(sync.Period()-signal.HoldGuard)) > 1e-15 {
		t.Errorf("spin wait: Hold = %v until %v, want spin %v until the next burst %v", p, until, w.spin, sync.Period())
	}
}
