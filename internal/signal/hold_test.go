package signal

import (
	"math"
	"testing"
)

// checkHolds walks time from t0 in steps of dt, the way the engine
// advances its clock, and checks the hold contract at every step: a
// fresh Hold(t) returns Value(t) bit for bit, and while t is short of
// the last hold's end, Value(t) is the held sample bit for bit — as is
// the value at the last float64 before the end. It returns how many
// steps were held.
func checkHolds(t *testing.T, value func(float64) float64, hold func(float64) (float64, float64), t0, dt float64, steps int) int {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	held := 0
	p, until := 0.0, math.Inf(-1)
	tt := t0
	for s := 0; s < steps; s++ {
		if tt < until {
			held++
			if v := value(tt); !same(v, p) {
				t.Fatalf("t=%v inside the hold [.., %v): value %v, held %v", tt, until, v, p)
			}
		} else {
			start := tt
			p, until = hold(tt)
			if v := value(tt); !same(v, p) {
				t.Fatalf("Hold(%v) = %v, Value = %v", tt, p, v)
			}
			if until > start {
				last := math.Nextafter(until, math.Inf(-1))
				if v := value(last); !same(v, p) {
					t.Fatalf("hold [%v, %v): value %v at its last instant, held %v", start, until, v, p)
				}
			}
		}
		tt += dt
	}
	return held
}

// FuzzSquareWaveHold checks SquareWave.Hold against Value over engine
// clocks that start anywhere (negative times included) and advance by
// a fuzzed step, across periods, duties, rise times up to whole
// phases and phase offsets of either sign.
func FuzzSquareWaveHold(f *testing.F) {
	f.Add(0.0, 2e-9, 5e-7, 0.5, 2e-9, 0.0, uint16(2000))
	f.Add(-3.7e-6, 2e-9, 2.5e-7, 0.3, 1e-9, 1.3e-7, uint16(4000))
	f.Add(1e-3, 2e-9, 1e-5, 0.5, 0.0, -4e-6, uint16(3000))
	f.Add(17.25, 1e-9, 1e-6, 0.9, 5e-7, 2.5e-7, uint16(1500))
	f.Add(-0.5, 3e-9, 2e-8, 0.05, 2e-8, 1e-8, uint16(5000))
	f.Add(300.0, 2e-9, 1e-6, 0.5, 2e-9, 0.0, uint16(1000)) // beyond holdSpan: no holds
	f.Fuzz(func(t *testing.T, t0, dt, period, duty, rise, phase float64, steps uint16) {
		ok := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		if !ok(t0) || !ok(phase) || !ok(rise) || math.Abs(t0) > 1e6 || math.Abs(phase) > 1e6 {
			t.Skip()
		}
		if !(dt >= 1e-12 && dt <= 1e-6) || !(period >= 1e-9 && period <= 1) || !(duty > 0 && duty < 1) {
			t.Skip()
		}
		w := SquareWave{Low: 12.5, High: 41.75, Period: period, Duty: duty, Rise: math.Abs(rise), Phase: phase}
		checkHolds(t, w.Value, w.Hold, t0, dt, int(steps%8192))
	})
}

// TestSquareWaveHoldPlateaus pins where holds end: one HoldGuard before
// the plateau's end, never on an edge, never beyond holdSpan.
func TestSquareWaveHoldPlateaus(t *testing.T) {
	w := SquareWave{Low: 1, High: 3, Period: 1e-6, Duty: 0.5, Rise: 2e-9}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-18 }
	if p, u := w.Hold(0.1e-6); p != 3 || !near(u, 0.5e-6-HoldGuard) {
		t.Errorf("High plateau: Hold = %v until %v, want 3 until %v", p, u, 0.5e-6-HoldGuard)
	}
	if p, u := w.Hold(0.7e-6); p != 1 || !near(u, 1e-6-HoldGuard) {
		t.Errorf("Low plateau: Hold = %v until %v, want 1 until %v", p, u, 1e-6-HoldGuard)
	}
	for _, at := range []float64{1e-9, 0.501e-6} {
		if p, u := w.Hold(at); u != at || p != w.Value(at) {
			t.Errorf("edge at %v: Hold = %v until %v, want no hold", at, p, u)
		}
	}
	if _, u := w.Hold(holdSpan); u != holdSpan {
		t.Errorf("Hold(holdSpan) holds until %v, want no hold", u)
	}
}
