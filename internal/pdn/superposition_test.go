package pdn

import (
	"math"
	"testing"
)

// coreLoad is a per-core load waveform: the current core i draws at t.
type coreLoad func(i int, t float64) float64

// zec12LaneDroops runs one lockstep batch on the zEC12 network from
// simulation time start, lane l driving every core with loads[l], and
// returns the droop below the VRM's set point, Vnom − V, at every core
// node of every lane after each of steps steps:
// droops[step][lane][core].
func zec12LaneDroops(t *testing.T, loads []coreLoad, dt, start float64, steps int) [][][NumCores]float64 {
	t.Helper()
	cfg := DefaultZEC12Config()
	ckt, nodes := ZEC12(cfg)
	lane := 0
	for i := range nodes.Core {
		ckt.AddLoad("core", nodes.Core[i], func(tm float64) float64 { return loads[lane](i, tm) })
	}
	bt, err := NewBatchTransientAt(ckt, dt, start, len(loads), laneFill(ckt, &lane))
	if err != nil {
		t.Fatal(err)
	}
	droops := make([][][NumCores]float64, steps)
	for s := range droops {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		droops[s] = make([][NumCores]float64, len(loads))
		for l := range loads {
			for i, n := range nodes.Core {
				droops[s][l][i] = cfg.Vnom - bt.Voltage(l, n)
			}
		}
	}
	return droops
}

// dcCondition returns the number of unknowns of c's nodal matrices
// and the 1-norm condition number of the DC operating-point matrix,
// ||G||·||G⁻¹||, with the inverse taken column by column through the
// engine's own factorization.
func dcCondition(t *testing.T, c *Circuit) (n int, kappa float64) {
	t.Helper()
	bt, err := NewBatchTransient(c, 1e-9, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	n = bt.n
	g := make([]float64, n*n)
	for _, e := range c.elements {
		if ge, ok := dcConductance(e); ok {
			stampReal(g, n, bt.idx, e.a, e.b, ge)
		}
	}
	lu, err := factorReal(append([]float64(nil), g...), n)
	if err != nil {
		t.Fatal(err)
	}
	inv := make([]float64, n*n) // column j of G⁻¹ at inv[j*n:]
	unit := make([]float64, n)
	for j := 0; j < n; j++ {
		unit[j] = 1
		lu.solveInto(inv[j*n:(j+1)*n], unit)
		unit[j] = 0
	}
	var normG, normInv float64
	for j := 0; j < n; j++ {
		var colG, colInv float64
		for i := 0; i < n; i++ {
			colG += math.Abs(g[i*n+j])
			colInv += math.Abs(inv[j*n+i])
		}
		normG, normInv = math.Max(normG, colG), math.Max(normInv, colInv)
	}
	return n, normG * normInv
}

// sineLoad drives every core with a 2 MHz sine of its own size and
// phase, so no two cores draw alike.
func sineLoad(i int, tm float64) float64 {
	return (1 + 0.3*float64(i)) * (1 + math.Sin(2*math.Pi*2e6*tm+float64(i)))
}

// TestZEC12Superposition checks two invariants of a linear network
// against the transient engine on zEC12. The network has no load but
// the cores', so with every core idle all nodes sit at Vnom: that is
// the DC point the lanes share, and each lane's droop below it is a
// linear function of the lane's loads. So, core by core and step by
// step, droop(a+b) = droop(a) + droop(b) and droop(k·a) = k·droop(a).
//
// The tolerance comes from float64 rounding. A backward-stable LU
// solve of an n-unknown system with condition number κ returns
// potentials within about n·ε·κ·|V| of the exact ones. The worst
// conditioned solve the engine makes is the DC operating point that
// starts each lane, whose shorted inductors give κ ≈ 8e6 on zEC12;
// the per-step companion matrix is about a hundred times better
// conditioned, and a passive network's trapezoidal update damps what
// the start leaves rather than amplifying it. Each residual combines
// three lanes, so the bound is 3·n·ε·κ·Vnom, about 1.3e-7 V. The
// residuals measure about 1e-10 V, while a 1 % change of one lane's
// load moves its droop by ~7e-5 V.
func TestZEC12Superposition(t *testing.T) {
	const (
		dt    = 2e-9
		steps = 3000 // 6 µs: a dozen periods of the 2 MHz drive
		k     = 3.0  // not a power of two, so the scaling rounds
	)
	// a: sineLoad. b: a 0.7 µs square wave on the even cores over a
	// constant draw on the odd ones.
	a := sineLoad
	b := func(i int, tm float64) float64 {
		if i%2 == 1 {
			return 0.25
		}
		if math.Mod(tm, 0.7e-6) < 0.35e-6 {
			return 2.5
		}
		return 0.5
	}
	sum := func(i int, tm float64) float64 { return a(i, tm) + b(i, tm) }
	scaled := func(i int, tm float64) float64 { return k * a(i, tm) }

	cfg := DefaultZEC12Config()
	ckt, _ := ZEC12(cfg)
	n, kappa := dcCondition(t, ckt)
	tol := 3 * float64(n) * 0x1p-52 * kappa * cfg.Vnom
	check := func(name string, got, want float64, s, i int) {
		if math.Abs(got-want) > tol {
			t.Fatalf("%s: step %d core %d: %.15g, want %.15g (|diff| %.3g > tol %.3g)",
				name, s, i, got, want, math.Abs(got-want), tol)
		}
	}

	sup := zec12LaneDroops(t, []coreLoad{a, b, sum}, dt, 0, steps)
	peak := 0.0
	for s, lanes := range sup {
		for i := 0; i < NumCores; i++ {
			check("droop(a+b) vs droop(a)+droop(b)", lanes[2][i], lanes[0][i]+lanes[1][i], s, i)
			peak = math.Max(peak, math.Abs(lanes[0][i]))
		}
	}
	// The invariant means nothing if the loads barely droop the rail.
	if peak < 1e-3 {
		t.Fatalf("peak droop of load a is %.3g V; the loads do not exercise the network", peak)
	}

	scale := zec12LaneDroops(t, []coreLoad{a, scaled}, dt, 0, steps)
	for s, lanes := range scale {
		for i := 0; i < NumCores; i++ {
			check("droop(k·a) vs k·droop(a)", lanes[1][i], k*lanes[0][i], s, i)
		}
	}
}

// TestZEC12MirrorSymmetry checks that the engine respects the
// automorphisms of the zEC12 netlist. Swapping the two rows (core i
// with core i^1, domain A with domain B), reversing both rows (cores
// 0↔4 and 1↔5), and doing both at once each map the network onto
// itself. So a load a mirrored by such a permutation σ, core i drawing
// a's core σ(i) draw, droops core i exactly as a droops core σ(i):
// droop(σa)[i] = droop(a)[σ(i)] at every core and step.
//
// The lanes solve the same matrices against different right-hand
// sides, so they agree only up to rounding. As in
// TestZEC12Superposition each residual combines two lanes, so the
// bound is 2·n·ε·κ·Vnom. Each mirrored lane has a control lane drawing
// 1.01 times its load, and the test requires the control to break the
// bound, so a check too loose to see a 1 % load error fails too.
func TestZEC12MirrorSymmetry(t *testing.T) {
	const (
		dt    = 2e-9
		steps = 3000
	)
	mirrors := []struct {
		name  string
		sigma [NumCores]int
	}{
		{"row swap", [NumCores]int{1, 0, 3, 2, 5, 4}},
		{"row reversal", [NumCores]int{4, 5, 2, 3, 0, 1}},
		{"both", [NumCores]int{5, 4, 3, 2, 1, 0}},
	}
	// Lane 0 draws a; lanes 1+2m and 2+2m draw σ_m·a and 1.01·σ_m·a.
	loads := []coreLoad{sineLoad}
	for _, m := range mirrors {
		sigma := m.sigma
		loads = append(loads,
			func(i int, tm float64) float64 { return sineLoad(sigma[i], tm) },
			func(i int, tm float64) float64 { return 1.01 * sineLoad(sigma[i], tm) })
	}

	cfg := DefaultZEC12Config()
	ckt, _ := ZEC12(cfg)
	n, kappa := dcCondition(t, ckt)
	tol := 2 * float64(n) * 0x1p-52 * kappa * cfg.Vnom

	droops := zec12LaneDroops(t, loads, dt, 0, steps)
	for mi, m := range mirrors {
		worst, control := 0.0, 0.0
		for s, lanes := range droops {
			for i := 0; i < NumCores; i++ {
				want := lanes[0][m.sigma[i]]
				d := math.Abs(lanes[1+2*mi][i] - want)
				if d > tol {
					t.Fatalf("%s: step %d core %d: droop %.15g, want %.15g (|diff| %.3g > tol %.3g)",
						m.name, s, i, lanes[1+2*mi][i], want, d, tol)
				}
				worst = math.Max(worst, d)
				control = math.Max(control, math.Abs(lanes[2+2*mi][i]-want))
			}
		}
		if control <= tol {
			t.Errorf("%s: a 1.01-scaled mirrored load stays within tol %.3g (worst %.3g); the check cannot see a 1 %% error", m.name, tol, control)
		}
		t.Logf("%s: worst residual %.3g V, 1.01 control %.3g V, tol %.3g V", m.name, worst, control, tol)
	}
}

// TestZEC12TimeShift checks time-shift invariance: the network's
// matrices do not depend on time, so an engine started at T and driven
// by a(t−T) droops exactly as an engine started at 0 and driven by
// a(t), step for step and core by core.
//
// Two sources of rounding separate them. The solves differ only in
// their right-hand sides, so, as in TestZEC12MirrorSymmetry, two lanes
// agree within 2·n·ε·κ·Vnom. The loads differ too: each engine adds Δt
// to its clock every step and the shifted load subtracts T again, so
// the two read a at times that differ by rounding. With u = 2⁻⁵³ and
// t_end = S·Δt, S steps of clock additions plus the subtraction leave
// the times at most δt = (2S+1)·u·(T+t_end) apart. sineLoad then
// differs by at most its largest slope times δt, plus its own rounding
// at each of the two evaluations: the phase is off by at most
// 2u·|phase|, and the sine, the 1+ and the product add at most
// 5u·amplitude. A load
// difference D drives a droop difference no larger than D times the
// ℓ1 norm of the network's discrete impulse response over the S steps,
// summed over the cores that draw; the test measures that gain with
// the engine, one unit impulse per lane. The bound is the sum of the
// two terms. A lane drawing 1.01·a(t−T) must break it.
func TestZEC12TimeShift(t *testing.T) {
	const (
		dt    = 2e-9
		steps = 3000
		u     = 0x1p-53
		omega = 2 * math.Pi * 2e6    // sineLoad's angular frequency
		amp   = 1 + 0.3*(NumCores-1) // sineLoad's largest core amplitude
	)
	shift := 1000 * dt
	shifted := func(i int, tm float64) float64 { return sineLoad(i, tm-shift) }
	control := func(i int, tm float64) float64 { return 1.01 * sineLoad(i, tm-shift) }

	// Gain: lane j draws one ampere at core j at the first step only.
	impulses := make([]coreLoad, NumCores)
	for j := range impulses {
		impulses[j] = func(i int, tm float64) float64 {
			if i == j && tm == dt {
				return 1
			}
			return 0
		}
	}
	var gain float64
	h := zec12LaneDroops(t, impulses, dt, 0, steps)
	for i := 0; i < NumCores; i++ {
		var sum float64
		for _, lanes := range h {
			for j := range impulses {
				sum += math.Abs(lanes[j][i])
			}
		}
		gain = math.Max(gain, sum)
	}

	cfg := DefaultZEC12Config()
	ckt, _ := ZEC12(cfg)
	n, kappa := dcCondition(t, ckt)
	tEnd := steps * dt
	clock := (2*steps + 1) * u * (shift + tEnd)
	phase := omega*(shift+tEnd) + NumCores
	load := amp*omega*clock + 2*amp*u*(2*phase+5)
	solveTol := 2 * float64(n) * 0x1p-52 * kappa * cfg.Vnom
	tol := solveTol + gain*load

	base := zec12LaneDroops(t, []coreLoad{sineLoad}, dt, 0, steps)
	moved := zec12LaneDroops(t, []coreLoad{shifted, control}, dt, shift, steps)
	worst, miss := 0.0, 0.0
	for s := range base {
		for i := 0; i < NumCores; i++ {
			want := base[s][0][i]
			d := math.Abs(moved[s][0][i] - want)
			if d > tol {
				t.Fatalf("step %d core %d: shifted droop %.15g, want %.15g (|diff| %.3g > tol %.3g)",
					s, i, moved[s][0][i], want, d, tol)
			}
			worst = math.Max(worst, d)
			miss = math.Max(miss, math.Abs(moved[s][1][i]-want))
		}
	}
	if miss <= tol {
		t.Errorf("a 1.01-scaled shifted load stays within tol %.3g (worst %.3g); the check cannot see a 1 %% error", tol, miss)
	}
	t.Logf("worst residual %.3g V, 1.01 control %.3g V, tol %.3g V (solve %.3g V + gain %.3g V/A × load %.3g A)",
		worst, miss, tol, solveTol, gain, load)
}
