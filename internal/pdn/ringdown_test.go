package pdn

import (
	"math"
	"strconv"
	"testing"
)

// runWidthOne steps a width-1 engine on ckt from time zero until span
// and returns v(node) after every step, one sample per Δt.
func runWidthOne(t *testing.T, ckt *Circuit, dt, span float64, node NodeID) []float64 {
	t.Helper()
	bt, err := NewBatchTransientAt(ckt, dt, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := int(math.Round(span / dt))
	v := make([]float64, n)
	for k := range v {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		v[k] = bt.Voltage(0, node)
	}
	return v
}

// TestParallelTankStepResponse compares a parallel R‖L‖C tank with its
// closed-form ring-down after a current step. The node starts at its DC
// point (v = 0, the inductor shorting it) and the load steps from 0 to
// I at t_s. Then v(t) = -I/(C·ωd)·e^{-α(t-t_s)}·sin(ωd(t-t_s)) with
// α = 1/(2RC) and ωd = √(1/(LC) - α²).
//
// The engine samples the load once per step, so the trapezoidal rule
// sees the step as a ramp across the step that contains it. Placing
// t_s half-way between two steps centres that ramp on t_s, which leaves
// only the rule's second-order error. That error is the rule's phase
// lag: per radian of ringing the discrete frequency lags by
// (ω0Δt)²/12, so at τ = t - t_s the phase is off by ω0·τ·(ω0Δt)²/12
// while the envelope is amplitude·e^{-ατ}. Their product peaks at
// τ = 1/α, so |v - v_exact| stays below
// amplitude·ω0·(ω0Δt)²/(12·α·e). The bound allows 1.5 times that.
func TestParallelTankStepResponse(t *testing.T) {
	const (
		r, l, c = 0.5, 1e-9, 1e-6 // f0 ≈ 5.03 MHz, Q ≈ 15.8
		load    = 1.0             // A
		dt      = 1e-9
		ts      = 20.5 * dt
		span    = 2e-6 // ~10 ring periods
	)
	ckt := NewCircuit()
	out := ckt.Node("out")
	ckt.AddResistor("r", out, Ground, r)
	ckt.AddInductor("l", out, Ground, l)
	ckt.AddCapacitor("c", out, Ground, c, 0)
	ckt.AddLoad("step", out, func(tm float64) float64 {
		if tm < ts {
			return 0
		}
		return load
	})
	alpha := 1 / (2 * r * c)
	w0 := 1 / math.Sqrt(l*c)
	wd := math.Sqrt(w0*w0 - alpha*alpha)
	amp := load / (c * wd)
	exact := func(tm float64) float64 {
		if tm < ts {
			return 0
		}
		tau := tm - ts
		return -amp * math.Exp(-alpha*tau) * math.Sin(wd*tau)
	}

	v := runWidthOne(t, ckt, dt, span, out)
	worst := 0.0
	for k, got := range v {
		worst = math.Max(worst, math.Abs(got-exact(float64(k+1)*dt)))
	}
	bound := 1.5 * amp * w0 * (w0 * dt) * (w0 * dt) / (12 * alpha * math.E)
	if worst > bound {
		t.Errorf("max |v - v_exact| = %.3g V over %g s, want <= %.3g V (amplitude %.3g V)", worst, span, bound, amp)
	} else {
		t.Logf("max |v - v_exact| = %.3g V, bound %.3g V, amplitude %.3g V", worst, bound, amp)
	}
}

// TestLadderRingDownConvergence pins second order on a network with
// several coupled modes: a source feeds three series R–L sections, each
// into its own capacitor. A smooth current pulse at the middle and the
// far node excites the ladder, which then rings down. Against a
// reference run at Δt/16, halving Δt must quarter the worst error at
// the shared sample times. The pulse sin²(πt/T) has a continuous value
// and slope, so no ramp error from a sampled step hides the order.
func TestLadderRingDownConvergence(t *testing.T) {
	const (
		pulse = 300e-9
		span  = 2e-6
		dt    = 4e-9
	)
	build := func() (*Circuit, NodeID) {
		ckt := NewCircuit()
		src := ckt.Node("src")
		ckt.FixNode(src, 1)
		prev := src
		var nodes [3]NodeID
		for i, sec := range []struct{ r, l, c float64 }{
			{0.01, 2e-9, 2e-6},
			{0.02, 1e-9, 1e-6},
			{0.03, 3e-9, 0.5e-6},
		} {
			k := strconv.Itoa(i)
			mid := ckt.Node("m" + k)
			nodes[i] = ckt.Node("n" + k)
			ckt.AddResistor("r"+k, prev, mid, sec.r)
			ckt.AddInductor("l"+k, mid, nodes[i], sec.l)
			ckt.AddCapacitor("c"+k, nodes[i], Ground, sec.c, 0)
			prev = nodes[i]
		}
		burst := func(amps float64) func(float64) float64 {
			return func(tm float64) float64 {
				if tm <= 0 || tm >= pulse {
					return 0
				}
				s := math.Sin(math.Pi * tm / pulse)
				return amps * s * s
			}
		}
		ckt.AddLoad("mid", nodes[1], burst(3))
		ckt.AddLoad("far", nodes[2], burst(5))
		return ckt, nodes[2]
	}
	ckt, far := build()
	ref := runWidthOne(t, ckt, dt/16, span, far)
	// Once the pulse is over the ladder must ring down to its DC point,
	// 1 V: a self-consistent but wrong companion model can still show
	// second order, not a decaying ring.
	swing := func(from, to float64) float64 {
		worst := 0.0
		for _, v := range ref[int(from/(dt/16)):int(to/(dt/16))] {
			worst = math.Max(worst, math.Abs(v-1))
		}
		return worst
	}
	if early, late := swing(pulse, pulse+500e-9), swing(span-500e-9, span); !(late < early/2) {
		t.Errorf("ring-down does not decay: max |v-1| %.3g V just after the pulse, %.3g V at the end", early, late)
	}
	maxErr := func(h float64) float64 {
		ckt, far := build()
		v := runWidthOne(t, ckt, h, span, far)
		stride := int(math.Round(h / (dt / 16)))
		worst := 0.0
		for k, got := range v {
			worst = math.Max(worst, math.Abs(got-ref[(k+1)*stride-1]))
		}
		return worst
	}
	coarse, fine := maxErr(dt), maxErr(dt/2)
	if ratio := coarse / fine; ratio < 3.5 || ratio > 4.5 {
		t.Errorf("Δt %g → %g: max error %.3g → %.3g, ratio %.2f, want 4 ± 0.5", dt, dt/2, coarse, fine, ratio)
	} else {
		t.Logf("Δt %g → %g: max error %.3g → %.3g, ratio %.2f", dt, dt/2, coarse, fine, ratio)
	}
}
