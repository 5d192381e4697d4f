package population

import (
	"math"
	"testing"
)

func TestSketchAddAndQuantiles(t *testing.T) {
	s := NewSketch(0, 10, 10)
	for i := 0; i < 100; i++ {
		s.Add(float64(i) / 10) // 0.0 .. 9.9, uniform
	}
	if s.N != 100 || s.MinV != 0 || s.MaxV != 9.9 {
		t.Fatalf("n=%d min=%g max=%g", s.N, s.MinV, s.MaxV)
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("q0 = %g", got)
	}
	if got := s.Quantile(1); got != 9.9 {
		t.Errorf("q1 = %g", got)
	}
	// Uniform data: the median sits in the middle bin (center 4.5 or
	// 5.5 depending on rank rounding), far from the edges.
	if med := s.Quantile(0.5); med < 3.5 || med > 6.5 {
		t.Errorf("median = %g", med)
	}
	if p99 := s.Quantile(0.99); p99 < 8.5 {
		t.Errorf("p99 = %g", p99)
	}
	d := s.Distribution()
	if d.Count != 100 || math.Abs(d.Mean-4.95) > 1e-9 {
		t.Errorf("distribution %+v", d)
	}
}

func TestSketchClampsOutliers(t *testing.T) {
	s := NewSketch(0, 10, 10)
	s.Add(-5)
	s.Add(25)
	if s.Counts[0] != 1 || s.Counts[9] != 1 {
		t.Errorf("edge bins %v", s.Counts)
	}
	// Exact extremes keep the true values.
	if s.MinV != -5 || s.MaxV != 25 {
		t.Errorf("min %g max %g", s.MinV, s.MaxV)
	}
}

func TestSketchHistogram(t *testing.T) {
	s := NewSketch(0, 10, 5)
	s.Add(1) // bin 0
	s.Add(1)
	s.Add(9) // bin 4
	h := s.Histogram()
	if len(h) != 2 {
		t.Fatalf("histogram %v", h)
	}
	if h[0].Count != 2 || h[0].From != 0 || h[0].To != 2 {
		t.Errorf("first row %+v", h[0])
	}
	if h[1].Count != 1 || h[1].From != 8 || h[1].To != 10 {
		t.Errorf("second row %+v", h[1])
	}
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(0, 10, 5)
	if q := s.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile %g", q)
	}
	if d := s.Distribution(); d.Count != 0 || d.Mean != 0 {
		t.Errorf("empty distribution %+v", d)
	}
	if h := s.Histogram(); len(h) != 0 {
		t.Errorf("empty histogram %v", h)
	}
}
