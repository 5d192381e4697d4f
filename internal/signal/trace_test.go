package signal

import (
	"math"
	"testing"
	"testing/quick"
)

func mkTrace(dt float64, vals ...float64) *Trace {
	t := NewTrace(dt, len(vals))
	copy(t.Samples, vals)
	return t
}

func TestNewTraceValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero dt":    func() { NewTrace(0, 4) },
		"negative n": func() { NewTrace(1e-9, -1) },
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

func TestTraceBasics(t *testing.T) {
	tr := mkTrace(2e-9, 1, 3, 2, -1)
	if tr.Len() != 4 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := tr.Duration(); !approx(got, 8e-9) {
		t.Errorf("Duration = %g", got)
	}
	if got := tr.Time(3); !approx(got, 6e-9) {
		t.Errorf("Time(3) = %g", got)
	}
	if got := tr.Min(); got != -1 {
		t.Errorf("Min = %g", got)
	}
	if got := tr.Max(); got != 3 {
		t.Errorf("Max = %g", got)
	}
	if got := tr.PeakToPeak(); got != 4 {
		t.Errorf("PeakToPeak = %g", got)
	}
}

func TestTraceAtInterpolates(t *testing.T) {
	tr := mkTrace(1, 0, 10, 20)
	if got := tr.At(0.5); !approx(got, 5) {
		t.Errorf("At(0.5) = %g", got)
	}
	if got := tr.At(-5); got != 0 {
		t.Errorf("At before start = %g", got)
	}
	if got := tr.At(100); got != 20 {
		t.Errorf("At past end = %g", got)
	}
}

func TestTraceAtRespectsStart(t *testing.T) {
	tr := mkTrace(1, 0, 10)
	tr.Start = 100
	if got := tr.At(100.5); !approx(got, 5) {
		t.Errorf("At with offset start = %g", got)
	}
}

func TestSliceSharesStorageAndShiftsStart(t *testing.T) {
	tr := mkTrace(1, 0, 1, 2, 3, 4)
	s := tr.Slice(2, 4)
	if s.Len() != 2 || s.Samples[0] != 2 {
		t.Fatalf("Slice contents wrong: %+v", s)
	}
	if s.Start != 2 {
		t.Errorf("Slice start = %g", s.Start)
	}
	s.Samples[0] = 99
	if tr.Samples[2] != 99 {
		t.Error("Slice does not share storage")
	}
}

func TestSliceBounds(t *testing.T) {
	tr := mkTrace(1, 0, 1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Slice(2, 1)
}

func TestEmptyTracePanics(t *testing.T) {
	tr := NewTrace(1, 0)
	for name, fn := range map[string]func(){
		"Min": func() { tr.Min() },
		"Max": func() { tr.Max() },
		"At":  func() { tr.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty trace: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: peak-to-peak is non-negative and every sample lies within
// [min, max].
func TestTraceStatsProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e50 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		tr := mkTrace(1e-9, vals...)
		p2p := tr.PeakToPeak()
		if p2p < 0 {
			return false
		}
		for _, v := range vals {
			if v < tr.Min() || v > tr.Max() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func approx(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
