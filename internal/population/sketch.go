package population

import "fmt"

// Sketch is a fixed-geometry streaming histogram: the population
// runner folds one value per chip (or per core) into it instead of
// retaining traces. The geometry — range and bin count — is fixed at
// construction, so counts are integers whose totals are independent
// of fold order, merges of equal-geometry sketches are exact, and the
// quantiles read from the counts are bit-identical however the study
// was scheduled. Exact extremes are tracked alongside (min/max are
// order-independent); the mean is tracked as a running sum and is
// order-sensitive, so the runner always folds in chip order.
type Sketch struct {
	Lo     float64  `json:"lo"`
	Hi     float64  `json:"hi"`
	Counts []uint64 `json:"counts"`
	N      uint64   `json:"n"`
	MinV   float64  `json:"min"`
	MaxV   float64  `json:"max"`
	Sum    float64  `json:"sum"`
}

// NewSketch builds an empty sketch over [lo, hi) with the given bin
// count; values outside the range clamp into the edge bins (the
// exact extremes still record them).
func NewSketch(lo, hi float64, bins int) *Sketch {
	if bins < 1 || hi <= lo {
		panic(fmt.Sprintf("population: bad sketch geometry [%g, %g) x %d", lo, hi, bins))
	}
	return &Sketch{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add folds one value in.
func (s *Sketch) Add(v float64) {
	b := int((v - s.Lo) / (s.Hi - s.Lo) * float64(len(s.Counts)))
	if b < 0 {
		b = 0
	}
	if b >= len(s.Counts) {
		b = len(s.Counts) - 1
	}
	s.Counts[b]++
	if s.N == 0 || v < s.MinV {
		s.MinV = v
	}
	if s.N == 0 || v > s.MaxV {
		s.MaxV = v
	}
	s.N++
	s.Sum += v
}

// Quantile returns the q-quantile estimate: the center of the first
// bin whose cumulative count reaches rank ceil(q*N), clamped into the
// exact [min, max] so a bin-center estimate never prints outside the
// observed range; q <= 0 and q >= 1 return the exact extremes. Purely
// a function of the counts and extremes, so scheduling never moves it.
func (s *Sketch) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	if q <= 0 {
		return s.MinV
	}
	if q >= 1 {
		return s.MaxV
	}
	rank := uint64(q*float64(s.N)) + 1
	if rank > s.N {
		rank = s.N
	}
	var cum uint64
	for b, c := range s.Counts {
		cum += c
		if cum >= rank {
			w := (s.Hi - s.Lo) / float64(len(s.Counts))
			v := s.Lo + (float64(b)+0.5)*w
			if v < s.MinV {
				v = s.MinV
			}
			if v > s.MaxV {
				v = s.MaxV
			}
			return v
		}
	}
	return s.MaxV
}

// Distribution is the summary a sketch reduces to in results.
type Distribution struct {
	Count uint64  `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Distribution reduces the sketch.
func (s *Sketch) Distribution() Distribution {
	d := Distribution{Count: s.N}
	if s.N == 0 {
		return d
	}
	d.Min, d.Max = s.MinV, s.MaxV
	d.Mean = s.Sum / float64(s.N)
	d.P50 = s.Quantile(0.50)
	d.P90 = s.Quantile(0.90)
	d.P99 = s.Quantile(0.99)
	d.P999 = s.Quantile(0.999)
	return d
}

// HistBin is one row of an exported histogram.
type HistBin struct {
	From  float64 `json:"from"`
	To    float64 `json:"to"`
	Count uint64  `json:"count"`
}

// Histogram exports the sketch's non-empty bins, in order.
func (s *Sketch) Histogram() []HistBin {
	w := (s.Hi - s.Lo) / float64(len(s.Counts))
	out := make([]HistBin, 0, len(s.Counts))
	for b, c := range s.Counts {
		if c == 0 {
			continue
		}
		out = append(out, HistBin{From: s.Lo + float64(b)*w, To: s.Lo + float64(b+1)*w, Count: c})
	}
	return out
}
