package signal

import (
	"math"
	"testing"
)

func TestSquareWaveLevels(t *testing.T) {
	w := SquareWave{Low: 1, High: 3, Period: 10, Duty: 0.5}
	if got := w.Value(2); got != 3 {
		t.Errorf("high phase = %g", got)
	}
	if got := w.Value(7); got != 1 {
		t.Errorf("low phase = %g", got)
	}
	// Periodicity.
	if got := w.Value(12); got != 3 {
		t.Errorf("next period high = %g", got)
	}
	// Negative time wraps.
	if got := w.Value(-8); got != 3 {
		t.Errorf("negative time = %g", got)
	}
}

func TestSquareWaveDuty(t *testing.T) {
	w := SquareWave{Low: 0, High: 1, Period: 10, Duty: 0.2}
	// Fraction of time high over one period at fine resolution.
	sum := 0.0
	for i := 0; i < 1000; i++ {
		sum += w.Value(float64(i) * 0.01)
	}
	if frac := sum / 1000; math.Abs(frac-0.2) > 0.02 {
		t.Errorf("duty fraction = %g, want ~0.2", frac)
	}
}

func TestSquareWaveSlew(t *testing.T) {
	w := SquareWave{Low: 0, High: 1, Period: 100, Duty: 0.5, Rise: 10}
	// Midway through the rising edge.
	if got := w.Value(5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mid-rise = %g", got)
	}
	// Midway through the falling edge (high phase is [0,50), fall [50,60)).
	if got := w.Value(55); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("mid-fall = %g", got)
	}
	// Plateau.
	if got := w.Value(30); got != 1 {
		t.Errorf("plateau = %g", got)
	}
}

func TestSquareWaveRiseClampedToPhaseLengths(t *testing.T) {
	// Rise longer than the high phase must not panic or overshoot.
	w := SquareWave{Low: 0, High: 1, Period: 10, Duty: 0.1, Rise: 5}
	for x := 0.0; x < 20; x += 0.1 {
		v := w.Value(x)
		if v < 0 || v > 1 {
			t.Fatalf("Value(%g) = %g out of [0,1]", x, v)
		}
	}
}

func TestSquareWavePhase(t *testing.T) {
	w := SquareWave{Low: 0, High: 1, Period: 10, Duty: 0.5, Phase: 3}
	if got := w.Value(3.1); got != 1 {
		t.Errorf("just after phase start = %g", got)
	}
	if got := w.Value(2.9); got != 0 {
		t.Errorf("just before phase start = %g", got)
	}
}

func TestSquareWaveValidation(t *testing.T) {
	for name, w := range map[string]SquareWave{
		"zero period": {Period: 0, Duty: 0.5},
		"duty 0":      {Period: 1, Duty: 0},
		"duty 1":      {Period: 1, Duty: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			w.Value(0)
		}()
	}
}
