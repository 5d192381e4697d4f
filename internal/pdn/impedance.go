package pdn

import (
	"fmt"
	"math"
	"math/cmplx"

	"voltnoise/internal/cmat"
)

// ImpedancePoint is one sample of an impedance profile.
type ImpedancePoint struct {
	// Freq is the analysis frequency in hertz.
	Freq float64
	// Z is the complex driving-point impedance in ohms.
	Z complex128
}

// Mag returns |Z| in ohms.
func (p ImpedancePoint) Mag() float64 { return cmplx.Abs(p.Z) }

// Impedance computes the small-signal driving-point impedance seen
// from node `at` towards ground at frequency f. Voltage sources are
// shorted (fixed nodes held at 0 in the small-signal sense), loads are
// open. This mirrors the paper's "post-silicon impedance profile"
// (Figure 7b): inject 1 A at the observation point and read the
// resulting node voltage.
func (c *Circuit) Impedance(at NodeID, f float64) (complex128, error) {
	if f <= 0 {
		return 0, fmt.Errorf("pdn: impedance at non-positive frequency %g", f)
	}
	c.checkNode(at)
	idx, n := c.unknowns()
	if idx[at] < 0 {
		return 0, fmt.Errorf("pdn: impedance at fixed node %q is zero by construction", c.NodeName(at))
	}
	z, err := c.phasorSolve(newPhasorScratch(idx, n), at, at, f)
	if err != nil {
		return 0, fmt.Errorf("pdn: impedance solve at %g Hz: %w", f, err)
	}
	return z, nil
}

// TransferImpedance computes the small-signal transfer impedance
// Z(observe, inject) = V(observe) / I(inject): the voltage appearing
// at `observe` when 1 A is injected at `inject`. It quantifies how
// strongly noise generated at one core couples into another, the
// circuit-level mechanism behind the paper's inter-core propagation
// analysis (Section VI).
func (c *Circuit) TransferImpedance(observe, inject NodeID, f float64) (complex128, error) {
	if f <= 0 {
		return 0, fmt.Errorf("pdn: transfer impedance at non-positive frequency %g", f)
	}
	c.checkNode(observe)
	c.checkNode(inject)
	idx, n := c.unknowns()
	if idx[observe] < 0 || idx[inject] < 0 {
		return 0, fmt.Errorf("pdn: transfer impedance involving a fixed node is zero by construction")
	}
	z, err := c.phasorSolve(newPhasorScratch(idx, n), observe, inject, f)
	if err != nil {
		return 0, fmt.Errorf("pdn: transfer impedance solve at %g Hz: %w", f, err)
	}
	return z, nil
}

// phasorScratch holds the buffers of a phasor solve over a circuit's
// unknowns, so a caller solving at many frequencies allocates them
// once.
type phasorScratch struct {
	idx    []int // node -> unknown index, -1 for fixed nodes
	y      *cmat.Matrix
	lu     cmat.LU
	rhs, v []complex128
}

func newPhasorScratch(idx []int, n int) *phasorScratch {
	return &phasorScratch{idx: idx, y: cmat.New(n, n), rhs: make([]complex128, n), v: make([]complex128, n)}
}

// phasorSolve injects 1 A at `inject` at frequency f and returns the
// phasor voltage at `observe`. It restamps the nodal admittance matrix
// into s and factors it in place, so repeated solves allocate nothing.
func (c *Circuit) phasorSolve(s *phasorScratch, observe, inject NodeID, f float64) (complex128, error) {
	y, idx := s.y, s.idx
	y.Zero()
	w := 2 * math.Pi * f
	for _, e := range c.elements {
		var ye complex128
		switch e.kind {
		case kindResistor:
			ye = complex(1/e.value, 0)
		case kindInductor:
			ye = 1 / complex(0, w*e.value)
		case kindCapacitor:
			ye = complex(0, w*e.value)
		}
		ia, ib := idx[e.a], idx[e.b]
		if ia >= 0 {
			y.Add(ia, ia, ye)
		}
		if ib >= 0 {
			y.Add(ib, ib, ye)
		}
		if ia >= 0 && ib >= 0 {
			y.Add(ia, ib, -ye)
			y.Add(ib, ia, -ye)
		}
	}
	if err := s.lu.FactorInPlace(y); err != nil {
		return 0, err
	}
	clear(s.rhs)
	s.rhs[idx[inject]] = 1 // 1 A injection
	s.lu.SolveInto(s.v, s.rhs)
	return s.v[idx[observe]], nil
}

// ImpedanceProfile computes |Z|(f) at the given frequencies. The
// circuit's unknowns are indexed once and every frequency restamps and
// refactors the same buffers, so a profile's allocations do not grow
// with its length.
func (c *Circuit) ImpedanceProfile(at NodeID, freqs []float64) ([]ImpedancePoint, error) {
	out := make([]ImpedancePoint, len(freqs))
	if len(freqs) == 0 {
		return out, nil
	}
	c.checkNode(at)
	idx, n := c.unknowns()
	if idx[at] < 0 {
		return nil, fmt.Errorf("pdn: impedance at fixed node %q is zero by construction", c.NodeName(at))
	}
	s := newPhasorScratch(idx, n)
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("pdn: impedance at non-positive frequency %g", f)
		}
		z, err := c.phasorSolve(s, at, at, f)
		if err != nil {
			return nil, fmt.Errorf("pdn: impedance solve at %g Hz: %w", f, err)
		}
		out[i] = ImpedancePoint{Freq: f, Z: z}
	}
	return out, nil
}

// Peaks returns the local maxima of an impedance profile (points whose
// magnitude exceeds both neighbours), sorted by descending magnitude.
func Peaks(profile []ImpedancePoint) []ImpedancePoint {
	var peaks []ImpedancePoint
	for i := 1; i < len(profile)-1; i++ {
		m := profile[i].Mag()
		if m > profile[i-1].Mag() && m > profile[i+1].Mag() {
			peaks = append(peaks, profile[i])
		}
	}
	// Insertion sort by descending magnitude; profiles have few peaks.
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].Mag() > peaks[j-1].Mag(); j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	return peaks
}
