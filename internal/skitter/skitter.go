// Package skitter models the on-chip timing-uncertainty measurement
// macros ("skitters") of IBM mainframe processors, the paper's primary
// voltage-noise sensor.
//
// A skitter macro is a latched-tapped delay line of inverters whose
// per-stage delay is strongly voltage dependent. Each cycle, sampling
// latches capture how far the clock edge travelled down the line; the
// captured tap position therefore encodes the instantaneous supply
// voltage. In sticky mode the macro accumulates the min/max positions
// seen over a measurement window, and results are reported as
// percentage peak-to-peak variation (%p2p) — "the higher the %p2p
// noise, the higher the voltage droop". The model reproduces the two
// measurement artifacts the paper leans on: the step-function
// discretization of readings (integer tap positions) and the reduced
// linearity at large droops (tap positions compress as the edge
// position saturates).
package skitter

import (
	"fmt"
	"math"
	"sync"
)

// Config describes a skitter macro and its electrical environment.
type Config struct {
	// Taps is the length of the inverter delay line (zEC12: 129).
	Taps int
	// NominalDelay is the per-inverter delay in seconds at Vnom
	// (5-8 ps on the paper's platform).
	NominalDelay float64
	// ClockPeriod is the sampled clock period in seconds.
	ClockPeriod float64
	// Vnom is the voltage at which NominalDelay is calibrated.
	Vnom float64
	// VThreshold and Alpha parameterize the alpha-power delay model:
	// delay(V) ∝ V / (V - VThreshold)^Alpha. The effective threshold
	// of a long inverter chain sets the voltage sensitivity of the
	// reading.
	VThreshold float64
	// Alpha is the velocity-saturation exponent.
	Alpha float64
	// Gain scales the deviation of the edge position from nominal,
	// modelling per-macro process variation (1.0 = nominal macro).
	Gain float64
	// Jitter is the half-range, in taps, of the random cycle-to-cycle
	// clock jitter the delay line inevitably samples alongside the
	// supply noise. The dither it applies to the quantizer is what
	// lets long sticky measurements resolve sub-tap voltage
	// differences, as on real hardware. Zero disables it.
	Jitter float64
}

// DefaultConfig returns the calibrated zEC12-like skitter model.
func DefaultConfig() Config {
	return Config{
		Taps:         129,
		NominalDelay: 5.0e-12,
		ClockPeriod:  1 / 5.5e9,
		Vnom:         1.05,
		VThreshold:   0.66,
		Alpha:        1.3,
		Gain:         1.0,
		Jitter:       1.0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Taps < 2:
		return fmt.Errorf("skitter: %d taps", c.Taps)
	case c.NominalDelay <= 0:
		return fmt.Errorf("skitter: non-positive nominal delay %g", c.NominalDelay)
	case c.ClockPeriod <= 0:
		return fmt.Errorf("skitter: non-positive clock period %g", c.ClockPeriod)
	case c.Vnom <= c.VThreshold:
		return fmt.Errorf("skitter: Vnom %g must exceed threshold %g", c.Vnom, c.VThreshold)
	case c.Alpha <= 0:
		return fmt.Errorf("skitter: non-positive alpha %g", c.Alpha)
	case c.Gain <= 0:
		return fmt.Errorf("skitter: non-positive gain %g", c.Gain)
	case c.Jitter < 0:
		return fmt.Errorf("skitter: negative jitter %g", c.Jitter)
	}
	return nil
}

// Delay returns the per-inverter delay at supply voltage v, following
// the alpha-power law normalized to NominalDelay at Vnom. Voltages at
// or below the threshold saturate to a very large delay (the line
// stops propagating).
func (c Config) Delay(v float64) float64 {
	if v <= c.VThreshold {
		return math.Inf(1)
	}
	num := v / math.Pow(v-c.VThreshold, c.Alpha)
	den := c.Vnom / math.Pow(c.Vnom-c.VThreshold, c.Alpha)
	return c.NominalDelay * num / den
}

// NominalPosition returns the tap position of the clock edge at Vnom.
func (c Config) NominalPosition() int {
	return c.position(c.Vnom)
}

// edgePositionF is the continuous (pre-quantization) edge position.
func (c Config) edgePositionF(v float64) float64 {
	nom := c.positionF(c.Vnom)
	return nom + c.Gain*(c.positionF(v)-nom)
}

func (c Config) quantize(pos float64) int {
	p := int(math.Round(pos))
	if p < 0 {
		p = 0
	}
	if p > c.Taps {
		p = c.Taps
	}
	return p
}

func (c Config) positionF(v float64) float64 {
	d := c.Delay(v)
	if math.IsInf(d, 1) {
		return 0
	}
	pos := c.ClockPeriod / d
	if pos > float64(c.Taps) {
		pos = float64(c.Taps)
	}
	return pos
}

func (c Config) position(v float64) int {
	return int(c.positionF(v))
}

// Macro is a skitter instance accumulating sticky min/max edge
// positions over a measurement window. The cycle-to-cycle jitter
// dither uses a deterministic generator so every run reproduces
// exactly.
type Macro struct {
	cfg     Config
	minPos  int
	maxPos  int
	samples int64
	rng     uint64

	// Constants of the delay model that Sample would otherwise
	// recompute (two math.Pow calls each) every cycle: the alpha-power
	// normalization denominator and the continuous nominal position.
	den  float64
	nomF float64

	// rngStride advances the jitter stream on the fast path: the
	// SplitMix64 increment when jitter is enabled, zero (no branch, no
	// advance) when disabled — exactly what jitter() would have done.
	rngStride uint64

	// scale is the Vnom-dependent multiplier of the alpha-power core:
	// positionF(v) = scale * g(v) (before the Taps clamp) with
	// g(v) = (v-VThreshold)^Alpha / v, so the tabulated g serves every
	// per-lane supply bias and per-core gain through one table.
	scale float64

	// tab, when non-nil, is the certified piecewise-linear table of g
	// the slow path consults before paying for math.Pow; tabAfter
	// counts the full evaluations remaining before the table is fetched
	// (lazily, so short-lived macros never pay the build), and zero
	// means the table path is off for good.
	tab      *gTable
	tabAfter int

	// Sticky fast path. [vLo, vHi] is the verified-safe supply
	// interval: every v inside it is known to quantize within the
	// current sticky [minPos, maxPos] for EVERY possible jitter value,
	// so sampling it cannot move the sticky range — Sample then only
	// advances the jitter stream and the sample counter, skipping the
	// alpha-power math.Pow entirely. The interval is sound because the
	// edge position is monotone in v (for Alpha >= 1; mono gates the
	// path) and the safe set in edge space is an interval, so its
	// preimage in v space is too: any v between two verified-safe
	// points is itself safe. minPos/maxPos only ever widen, which only
	// widens the safe set, so the ratchet never needs to shrink.
	vLo, vHi float64
	mono     bool
}

// NewMacro builds a macro; the configuration must validate.
func NewMacro(cfg Config) (*Macro, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Macro{
		cfg:  cfg,
		den:  cfg.Vnom / math.Pow(cfg.Vnom-cfg.VThreshold, cfg.Alpha),
		nomF: cfg.positionF(cfg.Vnom),
		mono: cfg.Alpha >= 1,
		// The table engages only after this many full evaluations:
		// long measurement windows amortize the (cached) build, short
		// ones never touch it.
		tabAfter: 64,
	}
	m.scale = cfg.ClockPeriod * m.den / cfg.NominalDelay
	if cfg.Jitter != 0 {
		m.rngStride = 0x9E3779B97F4A7C15
	}
	m.Reset()
	return m, nil
}

// Config returns the macro's configuration.
func (m *Macro) Config() Config { return m.cfg }

// Reset clears the sticky min/max state and restarts the jitter
// sequence, so repeated measurements of the same waveform read
// identically.
func (m *Macro) Reset() {
	m.minPos = m.cfg.Taps + 1
	m.maxPos = -1
	m.samples = 0
	m.rng = 0x9E3779B97F4A7C15
	m.vLo = math.Inf(1)
	m.vHi = math.Inf(-1)
}

// Sample captures one cycle at supply voltage v.
//
// Readings are bit-identical with the fast path on or off: inside the
// safe interval the reading provably cannot move the sticky range
// whatever the jitter draw, and the jitter stream and sample counter
// advance exactly as the full evaluation would have advanced them.
// Sample is split so the safe-interval fast path — a two-compare body
// small enough for the compiler to inline into per-step observer loops
// — never pays a function call, while the full evaluation lives in
// sampleSlow.
func (m *Macro) Sample(v float64) {
	if v >= m.vLo && v <= m.vHi {
		// Safe interval: the sticky range cannot move. Keep the jitter
		// stream aligned (rngStride is zero when jitter is disabled,
		// matching what jitter() would have advanced).
		m.rng += m.rngStride
		m.samples++
		return
	}
	m.sampleSlow(v)
}

func (m *Macro) sampleSlow(v float64) {
	// One jitter draw per sample, whichever evaluation runs: the stream
	// stays aligned between the table path, the exact path, and the
	// safe-interval fast path.
	jit := m.jitter()
	if tab := m.tab; tab != nil && v > tab.lo && v < tab.hi {
		if m.sampleTable(tab, v, jit) {
			return
		}
	} else if m.tabAfter > 0 {
		m.tabAfter--
		if m.tabAfter == 0 {
			m.tab = gTableFor(m.cfg.VThreshold, m.cfg.Alpha)
		}
	}
	edge := m.edgePositionF(v)
	pos := m.cfg.quantize(edge + jit)
	if pos < m.minPos {
		m.minPos = pos
	}
	if pos > m.maxPos {
		m.maxPos = pos
	}
	m.samples++
	if !m.mono {
		return
	}
	// Ratchet the safe interval: v is safe when even the extreme jitter
	// draws keep the rounded position inside the sticky range —
	// edge ± Jitter strictly within (minPos-0.5, maxPos+0.5), with an
	// epsilon guarding the rounding boundaries. Clamping never matters
	// here: [minPos, maxPos] already lies within the physical line.
	const eps = 1e-9
	if edge-m.cfg.Jitter >= float64(m.minPos)-0.5+eps && edge+m.cfg.Jitter <= float64(m.maxPos)+0.5-eps {
		if v < m.vLo {
			m.vLo = v
		}
		if v > m.vHi {
			m.vHi = v
		}
	}
}

// sampleTable attempts the sample with the certified piecewise table
// instead of math.Pow, and reports whether it completed. It completes
// only when the approximation provably quantizes to the same tap as the
// exact evaluation: the interpolated edge must clear the Taps clamp,
// the nearest rounding boundary, and (for the safe-interval ratchet)
// both ratchet thresholds by more than the table's certified error
// bound — otherwise it declines and the exact path runs. Readings are
// therefore bit-identical with the table on or off; only the safe
// interval may ratchet more conservatively, which the interval's
// soundness argument already permits.
func (m *Macro) sampleTable(tab *gTable, v, jit float64) bool {
	idx := int((v - tab.lo) * tab.invStep)
	if idx >= len(tab.eps) {
		idx = len(tab.eps) - 1
	}
	g0 := tab.y[idx]
	g := g0 + (v-(tab.lo+float64(idx)*tab.step))*tab.invStep*(tab.y[idx+1]-g0)
	p := m.scale * g
	// epsP bounds |p - exact positionF(v)| in taps: the certified
	// interpolation error scaled into position units, plus an absolute
	// buffer absorbing the few-ulp discrepancy between scale*g and the
	// exact path's operation order.
	epsP := m.scale*tab.eps[idx] + 1e-9
	if p >= float64(m.cfg.Taps)-epsP {
		return false // the exact position might clamp at the line's end
	}
	edge := m.nomF + m.cfg.Gain*(p-m.nomF)
	epsE := m.cfg.Gain * epsP
	yj := edge + jit
	a := math.Abs(yj)
	if fr := a - math.Floor(a); math.Abs(fr-0.5) <= epsE {
		return false // too close to a rounding boundary to certify
	}
	pos := m.cfg.quantize(yj)
	if pos < m.minPos {
		m.minPos = pos
	}
	if pos > m.maxPos {
		m.maxPos = pos
	}
	m.samples++
	if !m.mono {
		return true
	}
	// The exact path's ratchet condition, decided with certainty: both
	// margins must exceed the error bound, so the exact edge satisfies
	// the condition whenever the ratchet fires here. An uncertain
	// margin just skips the ratchet — sound, merely conservative.
	const eps = 1e-9
	c1 := edge - m.cfg.Jitter - (float64(m.minPos) - 0.5 + eps)
	c2 := (float64(m.maxPos) + 0.5 - eps) - (edge + m.cfg.Jitter)
	if c1 > epsE && c2 > epsE {
		if v < m.vLo {
			m.vLo = v
		}
		if v > m.vHi {
			m.vHi = v
		}
	}
	return true
}

// gTable is a piecewise-linear tabulation of the alpha-power core
// g(v) = (v-VThreshold)^Alpha / v over [lo, hi], with a certified
// per-segment error bound. g depends only on (VThreshold, Alpha), so
// one table serves every supply bias (Vnom) and process gain a study
// sweeps — positionF(v) = scale*g(v) with a per-macro scale.
type gTable struct {
	lo, hi        float64
	step, invStep float64
	y             []float64 // segment knots, len(eps)+1
	eps           []float64 // per-segment max |interp - g|, with safety margin
}

const gTableSegs = 1024

// buildGTable tabulates g for one (VThreshold, Alpha) pair. The error
// bound per segment is the worst interpolation error observed at five
// interior points, widened 8x (the error curve of a linear interpolant
// on a smooth function peaks near mid-segment, so dense sampling plus
// the safety factor comfortably covers the true maximum) plus an
// ulp-scale floor.
func buildGTable(vth, alpha float64) *gTable {
	lo := math.Max(vth+0.05*math.Abs(vth)+1e-3, 0.05)
	hi := lo + 2.5
	step := (hi - lo) / gTableSegs
	t := &gTable{
		lo: lo, hi: hi, step: step, invStep: 1 / step,
		y:   make([]float64, gTableSegs+1),
		eps: make([]float64, gTableSegs),
	}
	g := func(v float64) float64 { return math.Pow(v-vth, alpha) / v }
	for k := range t.y {
		t.y[k] = g(lo + float64(k)*step)
	}
	for k := range t.eps {
		x0 := lo + float64(k)*step
		y0, y1 := t.y[k], t.y[k+1]
		maxErr := 0.0
		for _, f := range [...]float64{0.1, 0.3, 0.5, 0.7, 0.9} {
			x := x0 + f*step
			approx := y0 + (x-x0)*t.invStep*(y1-y0)
			if e := math.Abs(approx - g(x)); e > maxErr {
				maxErr = e
			}
		}
		t.eps[k] = 8*maxErr + 1e-12*(math.Abs(y0)+math.Abs(y1))
	}
	return t
}

// gTables caches built tables per (VThreshold, Alpha). The cache is
// capped: a workload churning through unbounded distinct thresholds
// (fuzzers, adversarial configs) stops building tables rather than
// accumulating them, and those macros simply keep the exact path.
var gTables struct {
	sync.Mutex
	m map[[2]float64]*gTable
}

func gTableFor(vth, alpha float64) *gTable {
	gTables.Lock()
	defer gTables.Unlock()
	if t, ok := gTables.m[[2]float64{vth, alpha}]; ok {
		return t
	}
	if len(gTables.m) >= 64 {
		return nil
	}
	if gTables.m == nil {
		gTables.m = make(map[[2]float64]*gTable)
	}
	t := buildGTable(vth, alpha)
	gTables.m[[2]float64{vth, alpha}] = t
	return t
}

// edgePositionF is Config.edgePositionF with the macro's cached model
// constants: the same expressions evaluated on the same inputs (so
// readings are bit-identical), minus three of the four math.Pow calls.
func (m *Macro) edgePositionF(v float64) float64 {
	return m.nomF + m.cfg.Gain*(m.positionF(v)-m.nomF)
}

// positionF mirrors Config.positionF/Delay using the cached
// denominator.
func (m *Macro) positionF(v float64) float64 {
	if v <= m.cfg.VThreshold {
		return 0 // the line stops propagating (Delay saturates to +Inf)
	}
	d := m.cfg.NominalDelay * (v / math.Pow(v-m.cfg.VThreshold, m.cfg.Alpha)) / m.den
	pos := m.cfg.ClockPeriod / d
	if pos > float64(m.cfg.Taps) {
		pos = float64(m.cfg.Taps)
	}
	return pos
}

// jitter returns the next dither value, uniform in [-Jitter, +Jitter],
// from a deterministic SplitMix64 stream.
func (m *Macro) jitter() float64 {
	if m.cfg.Jitter == 0 {
		return 0
	}
	m.rng += 0x9E3779B97F4A7C15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53) // [0,1)
	return (2*u - 1) * m.cfg.Jitter
}

// PositionRange returns the sticky (min, max) tap positions. It panics
// if no samples were taken.
func (m *Macro) PositionRange() (min, max int) {
	if m.samples == 0 {
		panic("skitter: PositionRange with no samples")
	}
	return m.minPos, m.maxPos
}

// PeakToPeakPercent returns the %p2p reading: the sticky position
// range as a percentage of the nominal edge position. This is the
// quantity the paper reports in every noise figure.
func (m *Macro) PeakToPeakPercent() float64 {
	if m.samples == 0 {
		panic("skitter: PeakToPeakPercent with no samples")
	}
	nom := m.cfg.NominalPosition()
	if nom == 0 {
		return 0
	}
	return float64(m.maxPos-m.minPos) / float64(nom) * 100
}
