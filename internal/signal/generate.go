package signal

import (
	"fmt"
	"math"
)

// SquareWave describes a periodic two-level waveform with slew-limited
// transitions, used to model the current envelope of a dI/dt stressmark:
// the value alternates between Low (low-power instruction sequence) and
// High (high-power sequence) at the stimulus frequency.
type SquareWave struct {
	// Low and High are the two levels.
	Low, High float64
	// Period is the full cycle duration in seconds.
	Period float64
	// Duty is the fraction of the period spent at High, in (0,1).
	Duty float64
	// Rise is the transition time between levels in seconds
	// (applied symmetrically to both edges). Zero means ideal edges.
	Rise float64
	// Phase shifts the waveform in time: the high phase begins at
	// t = Phase (mod Period).
	Phase float64
}

// Value returns the waveform value at time t.
func (w SquareWave) Value(t float64) float64 {
	p, _ := w.Hold(t)
	return p
}

// Hold returns the waveform value p at time t and the end of its hold:
// Value(t') equals p bit for bit at every t' in [t, until). On a
// plateau the hold ends HoldGuard before the plateau's last instant
// (the period end for Low); on an edge the value moves with t, so
// until = t (no hold).
func (w SquareWave) Hold(t float64) (p, until float64) {
	if w.Period <= 0 {
		panic(fmt.Sprintf("signal: square wave with period %g", w.Period))
	}
	if w.Duty <= 0 || w.Duty >= 1 {
		panic(fmt.Sprintf("signal: square wave with duty %g", w.Duty))
	}
	pos := fastMod(t-w.Phase, w.Period)
	if pos < 0 {
		pos += w.Period
	}
	highLen := w.Duty * w.Period
	rise := w.Rise
	if rise > highLen {
		rise = highLen
	}
	if rise > w.Period-highLen {
		rise = w.Period - highLen
	}
	span := math.Abs(w.Phase) + w.Period
	switch {
	case rise > 0 && pos < rise:
		// Rising edge.
		return w.Low + (w.High-w.Low)*(pos/rise), t
	case pos < highLen:
		return w.High, HoldUntil(t, highLen-pos, span)
	case rise > 0 && pos < highLen+rise:
		// Falling edge.
		return w.High - (w.High-w.Low)*((pos-highLen)/rise), t
	default:
		return w.Low, HoldUntil(t, w.Period-pos, span)
	}
}

// HoldGuard is how far before a predicted edge a hold ends, in
// seconds. A waveform that evaluates pos = (t - Phase) mod Period and
// compares it with fixed thresholds keeps its branch, and so its value,
// while pos stays below the next threshold e; HoldUntil predicts that
// instant as t + (e - pos). The prediction is exact but for rounding:
//   - fastMod is exact, so for t - Phase >= 0, pos is the true
//     remainder of the computed difference; for negative differences
//     the pos += Period correction rounds once (under ulp(Period)).
//   - fl(t - Phase) is monotone in t, so for t' >= t inside the same
//     period, pos' - pos is the growth of the computed difference,
//     which differs from t' - t by under ulp(|t| + |Phase|).
//   - e - pos and t + rem - HoldGuard round once each.
//
// Every term is a few ulp of the largest magnitude involved, which
// HoldUntil keeps under holdSpan (256 s, ulp 5.7e-14 s): together
// below 1e-12 s. So no t' short of the hold's end reaches the edge, nor
// wraps into the next period. The guard is in turn far below the
// 2 ns integration step, so a step rarely falls inside it; when one
// does, the fill just evaluates the waveform there, exactly.
const HoldGuard = 1e-12

// holdSpan bounds the magnitudes (|t| plus the waveform's own time
// offsets and periods) for which HoldUntil grants a hold; beyond it
// the rounding error of the edge prediction could approach HoldGuard.
const holdSpan = 256.0

// HoldUntil returns the end of a hold that starts at t and whose value
// changes no sooner than rem later: t + rem - HoldGuard. rem is the
// distance to the next edge as computed from operands whose magnitudes
// sum to span at most (see HoldGuard). It returns t — no hold — when
// rem does not exceed the guard (NaN included) or when |t| + span
// reaches holdSpan.
func HoldUntil(t, rem, span float64) float64 {
	if !(rem > HoldGuard && math.Abs(t)+span < holdSpan) {
		return t
	}
	return t + (rem - HoldGuard)
}

// fastMod returns math.Mod(x, p) for p > 0 at a fraction of the cost,
// bit-for-bit. Waveform evaluation calls Mod once per load per
// timestep, and math.Mod's iterative exponent-walking reduction
// dominates that path; one division and a fused multiply-add replace
// it exactly:
//
// The true remainder r = x - k*p (k the integer quotient truncated
// toward zero) is always exactly representable — the classical fmod
// exactness result — and FMA rounds x - k*p just once, so with the
// right k it returns r exactly. Floating-point division can put
// Trunc(x/p) off by at most one when x/p rounds across an integer, and
// the out-of-range check catches exactly that case, redoing the FMA
// with the corrected quotient. Non-finite x (and p = 0, giving a NaN
// quotient) fall through both corrections and return NaN, as math.Mod
// does.
func fastMod(x, p float64) float64 {
	q := x / p
	if !(q < (1<<52) && q > -(1<<52)) {
		// Quotients at or beyond 2^52 round too coarsely for the
		// off-by-one correction below (and NaN lands here too); let
		// math.Mod's exponent walk handle them.
		return math.Mod(x, p)
	}
	k := math.Trunc(q)
	r := math.FMA(-k, p, x)
	if x >= 0 {
		if r < 0 {
			r = math.FMA(-(k - 1), p, x)
		} else if r >= p {
			r = math.FMA(-(k + 1), p, x)
		}
	} else {
		if r > 0 {
			r = math.FMA(-(k + 1), p, x)
		} else if r <= -p {
			r = math.FMA(-(k - 1), p, x)
		}
	}
	if r == 0 {
		// An exact multiple of p: math.Mod returns zero with x's sign,
		// the FMA rounds the zero sum to +0 regardless.
		return math.Copysign(0, x)
	}
	return r
}
