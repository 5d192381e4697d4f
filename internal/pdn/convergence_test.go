package pdn

import (
	"math"
	"math/cmplx"
	"testing"
)

// seriesRLCSine is the closed-form response of a series R–L from a
// fixed source Vs into C, with the load I·sin(ωt) drawn from the C
// node for t >= 0 and nothing before. At t = 0 the circuit sits at DC:
// v(0) = Vs, i_L(0) = 0. The response is the steady-state phasor term
// plus the underdamped homogeneous term that cancels it at t = 0.
type seriesRLCSine struct {
	vs, r, l, c, i, w float64
}

// v returns the capacitor voltage at time t >= 0.
func (s seriesRLCSine) v(t float64) float64 {
	jw := complex(0, s.w)
	zs := complex(s.r, 0) + jw*complex(s.l, 0) // source path, AC-grounded at Vs
	z := 1 / (jw*complex(s.c, 0) + 1/zs)       // seen from the C node
	// The load phasor is I (Im part is the sine); it pulls the node
	// down by Z·I, and the inductor carries Z·I/Zs of it.
	up := -z * complex(s.i, 0)
	ip := -up / zs
	steady := func(ph complex128, t float64) float64 { return imag(ph * cmplx.Exp(jw*complex(t, 0))) }

	alpha := s.r / (2 * s.l)
	wd := math.Sqrt(1/(s.l*s.c) - alpha*alpha)
	// Homogeneous deviation u_h = e^{-αt}(A cos ωd t + B sin ωd t) with
	// u_h(0) = -u_p(0) and C u_h'(0) = i_h(0) = -i_p(0).
	a := -steady(up, 0)
	b := (-steady(ip, 0)/s.c + alpha*a) / wd
	hom := math.Exp(-alpha*t) * (a*math.Cos(wd*t) + b*math.Sin(wd*t))
	return s.vs + steady(up, t) + hom
}

// TestTrapezoidalConvergence pins the engine's order of accuracy
// against the closed form: on a smooth drive, halving Δt must quarter
// the worst error of v_out, the signature of the second-order
// trapezoidal rule. The load is continuous in value at t = 0 (a
// current step would cost the rule one O(Δt) error and hide the
// order).
func TestTrapezoidalConvergence(t *testing.T) {
	ref := seriesRLCSine{
		vs: 1, r: 0.02, l: 5e-9, c: 2e-6, // f0 ≈ 1.59 MHz, ζ = 0.2
		i: 1, w: 2 * math.Pi * 1e6,
	}
	const span = 3e-6
	maxErr := func(dt float64) float64 {
		ckt := NewCircuit()
		src, mid, out := ckt.Node("src"), ckt.Node("mid"), ckt.Node("out")
		ckt.FixNode(src, ref.vs)
		ckt.AddResistor("r", src, mid, ref.r)
		ckt.AddInductor("l", mid, out, ref.l)
		ckt.AddCapacitor("c", out, Ground, ref.c, 0)
		ckt.AddLoad("load", out, func(tm float64) float64 {
			if tm < 0 {
				return 0
			}
			return ref.i * math.Sin(ref.w*tm)
		})
		bt, err := NewBatchTransientAt(ckt, dt, 0, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for bt.Time() < span-dt/2 {
			if err := bt.Step(); err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, math.Abs(bt.Voltage(0, out)-ref.v(bt.Time())))
		}
		return worst
	}
	dt := 10e-9
	prev := maxErr(dt)
	for h := 0; h < 3; h++ {
		dt /= 2
		cur := maxErr(dt)
		if ratio := prev / cur; ratio < 3.5 || ratio > 4.5 {
			t.Errorf("Δt %g → %g: max error %.3g → %.3g, ratio %.2f, want 4 ± 0.5", 2*dt, dt, prev, cur, ratio)
		} else {
			t.Logf("Δt %g → %g: max error %.3g → %.3g, ratio %.2f", 2*dt, dt, prev, cur, ratio)
		}
		prev = cur
	}
}
