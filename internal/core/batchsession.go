package core

import (
	"context"
	"fmt"
	"math"

	"voltnoise/internal/pdn"
	"voltnoise/internal/signal"
	"voltnoise/internal/skitter"
)

// BatchSession is the reusable measurement engine for one platform
// configuration: it owns the built ZEC12 circuit, the factored nodal
// and DC matrices and every scratch buffer, so a campaign of
// near-identical runs pays the setup cost once. It advances B
// independent measurement lanes through one pdn.BatchTransient per
// step; each lane carries its own workload slots, supply bias, skitter
// macros and accumulators, so a width-B session pays the plan walk and
// the (latency-bound) LU substitution once per step for all B lanes.
// Width 1 is the one-measurement-at-a-time shape.
//
// Each step the engine asks the session once for every lane's load
// currents (fillLoads), which evaluates the lanes' workload slots whose
// holds have run out into the engine's load slab. Between runs only
// the cheap state moves: the workload slots are swapped, the engine
// re-derives each lane's DC operating point with the cached
// factorization, and the macros clear their sticky registers. A
// lane's Measurement depends only on its RunSpec, bias and gains —
// never on the width, the other lanes or the runs before it: per lane
// the engine performs the same floating-point operations in the same
// order, batching only interleaves lanes.
//
// A BatchSession is NOT safe for concurrent use; parallel studies draw
// one per in-flight batch from a SessionPool.
type BatchSession struct {
	cfg   Config
	lanes []laneState

	nodes pdn.ZEC12Nodes
	bt    *pdn.BatchTransient
	idle  Workload
	// coreV[i] is the live view of core i's potential in every lane.
	coreV [NumCores][]float64
	// next is the earliest hold end over every lane's slots: fillLoads
	// has nothing to write before it.
	next float64
}

// laneState is one measurement lane of a BatchSession.
type laneState struct {
	bias    float64 // quantized, as Platform.SetVoltageBias
	vnom    float64 // effective supply (PDN.Vnom * bias)
	uncoreI float64 // constant uncore current (UncorePower / vnom)
	// gains are the effective per-core skitter gain multipliers
	// (default cfg.CoreGain). They live entirely in the sensor macros,
	// which is what lets chips that share an electrical configuration
	// but differ in sensitivity (aging drift, core-class bases) ride
	// separate lanes of one factored circuit.
	gains  [NumCores]float64
	macros [NumCores]*skitter.Macro

	// wl holds the current run's workloads, which fillLoads evaluates.
	wl [NumCores]Workload
	// hold[i] is wl[i]'s Hold, nil when it has none or when core i is
	// an alias; until[i] is the end of core i's current hold, before
	// which fillLoads leaves its sample alone.
	hold  [NumCores]holder
	until [NumCores]float64
	// pw is each core's power sample as fillLoads last wrote it, read
	// by the chip-power accumulator.
	pw [NumCores]float64
	// src[i], when >= 0, is the lane-major index (lane*NumCores + core)
	// of the first slot holding the identical (pure) workload value as
	// this lane's core i; -1 when there is none. fillLoads visits the
	// slots in ascending lane order, core order within a lane, so the
	// source slot has always been evaluated first at the same instant:
	// core i copies its bit-identical power sample, its hold end and its
	// current, and redoes only the p/vnom division when the supplies
	// differ.
	src [NumCores]int

	// Per-run observation state.
	meas   *Measurement
	steps  int // measured steps in this lane's window
	record bool
	energy float64
}

// NewBatchSession builds a batch session with the given lane count,
// every lane at nominal voltage (bias 1.0).
func NewBatchSession(cfg Config, lanes int) (*BatchSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lanes < 1 {
		return nil, fmt.Errorf("core: batch lane count %d, want >= 1", lanes)
	}
	s := &BatchSession{cfg: cfg, lanes: make([]laneState, lanes), idle: Idle(cfg.Core)}
	for l := range s.lanes {
		c := &s.lanes[l]
		c.bias = 1.0
		c.vnom = cfg.PDN.Vnom
		c.uncoreI = cfg.UncorePower / c.vnom
		c.gains = cfg.CoreGain
		for i := range c.wl {
			c.wl[i] = s.idle
		}
		if err := s.rebuildMacros(c); err != nil {
			return nil, err
		}
	}

	// The loads only place the sinks: the engine takes their currents
	// from fillLoads, in this order (cores, then uncore).
	circuit, nodes := pdn.ZEC12(cfg.PDN)
	s.nodes = nodes
	for i := 0; i < NumCores; i++ {
		circuit.AddLoad(fmt.Sprintf("core%d", i), nodes.Core[i], filledLoad)
	}
	circuit.AddLoad("uncore", nodes.L3, filledLoad)
	// Every lane starts idle on every core, so the construction-time DC
	// solve already dedupes down to one idle slot, held forever.
	s.refreshAliases()

	bt, err := pdn.NewBatchTransientAt(circuit, cfg.Dt, 0, lanes, s.fillLoads)
	if err != nil {
		return nil, err
	}
	s.bt = bt
	for i := range s.coreV {
		s.coreV[i] = bt.LaneVoltages(s.nodes.Core[i])
	}
	return s, nil
}

// Config returns the session's platform configuration.
func (s *BatchSession) Config() Config { return s.cfg }

// Lanes returns the batch width.
func (s *BatchSession) Lanes() int { return len(s.lanes) }

// LaneBias returns the lane's current (quantized) bias.
func (s *BatchSession) LaneBias(lane int) float64 { return s.lanes[lane].bias }

// checkLane validates a lane index.
func (s *BatchSession) checkLane(lane int) error {
	if lane < 0 || lane >= len(s.lanes) {
		return fmt.Errorf("core: lane %d out of range [0,%d)", lane, len(s.lanes))
	}
	return nil
}

// SetLaneBias retunes one lane's supply setpoint, quantized to the
// service element's 0.5% steps like Platform.SetVoltageBias. Only the
// lane's fixed VRM potential and macro calibrations move — the
// factored matrices serve every lane at every bias, because fixed-node
// potentials enter the solve through the RHS only. This is what lets a
// Vmin walk probe several biases in one lockstep batch.
func (s *BatchSession) SetLaneBias(lane int, bias float64) error {
	if err := s.checkLane(lane); err != nil {
		return err
	}
	q := math.Round(bias/BiasStep) * BiasStep
	if q < 0.70 || q > 1.10 {
		return fmt.Errorf("core: voltage bias %g outside [0.70, 1.10]", q)
	}
	c := &s.lanes[lane]
	if q == c.bias {
		return nil
	}
	c.bias = q
	c.vnom = s.cfg.PDN.Vnom * q
	c.uncoreI = s.cfg.UncorePower / c.vnom
	if err := s.bt.SetLaneFixed(lane, s.nodes.VRM, c.vnom); err != nil {
		return err
	}
	return s.rebuildMacros(c)
}

// SetVoltageBias retunes every lane to the same bias.
func (s *BatchSession) SetVoltageBias(bias float64) error {
	for l := range s.lanes {
		if err := s.SetLaneBias(l, bias); err != nil {
			return err
		}
	}
	return nil
}

// refreshAliases recomputes the whole-batch alias map from every
// lane's workload slots, resolves each distinct slot's Hold and clears
// every hold, so the next fill evaluates every slot. A core's alias
// source may be any earlier slot in lane-major order — an earlier core
// of its own lane, or any core of an earlier lane — because fillLoads
// has always evaluated the first matching slot by the time it reaches
// the aliased core, within the same step at the same instant. The
// first match is never itself an alias (its own scan found nothing
// earlier), so alias chains are depth one and every copy reads a
// freshly computed (or still held) sample.
func (s *BatchSession) refreshAliases() {
	s.next = math.Inf(-1)
	for l := range s.lanes {
		c := &s.lanes[l]
		for i, w := range c.wl {
			c.src[i], c.until[i] = -1, math.Inf(-1)
			for g := 0; g < l*NumCores+i; g++ {
				if sameWorkload(s.lanes[g/NumCores].wl[g%NumCores], w) {
					c.src[i] = g
					break
				}
			}
			c.hold[i] = nil
			if c.src[i] < 0 {
				c.hold[i], _ = w.(holder)
			}
		}
	}
}

// fillLoads is the engine's load fill: it writes every lane's core and
// uncore currents at time t into cur, load k of lane l at
// cur[k*lanes+l]. Loads model devices as nominal-voltage current sinks,
// I(t) = P(t)/Vnom at the lane's effective supply (the standard
// linearization for PDN noise analysis), and each core's power sample
// is parked in the lane's pw for the chip-power accumulator.
//
// Only slots whose hold has run out are written. A slot whose workload
// has a Hold keeps its sample until the hold ends: by the Workload
// contract the sample is Power(t) bit for bit at every t before then,
// and the engine's slab, like pw, persists between steps, so a held
// slot needs no write. The waveforms' holds end signal.HoldGuard
// (1 ps) before their predicted edge: fastMod is exact and
// fl(t - Phase) monotone in t, so the prediction is off by a few
// ulp(t) at most — far below the guard, which is itself far below the
// 2 ns step. A workload without Hold never holds (until stays -Inf),
// and an alias shares its source's hold end, so it runs out at the
// same step, just after the source was re-evaluated. Before next, the
// earliest hold end, nothing has run out and the fill returns at once.
func (s *BatchSession) fillLoads(t float64, cur []float64) {
	if t < s.next {
		return
	}
	B := len(s.lanes)
	next := math.Inf(1)
	for l := range s.lanes {
		c := &s.lanes[l]
		for i := range c.wl {
			u := c.until[i]
			if !(t < u) {
				var p, q float64
				if g := c.src[i]; g >= 0 {
					// The source slot was evaluated first at the same
					// instant, so its power sample is bit-identical to what
					// this core's workload would produce.
					r, j := &s.lanes[g/NumCores], g%NumCores
					p, u = r.pw[j], r.until[j]
					if c.vnom != r.vnom {
						q = p / c.vnom
					} else {
						q = cur[j*B+g/NumCores]
					}
				} else {
					if h := c.hold[i]; h != nil {
						if p, u = h.Hold(t); !(u > t) {
							u = t // no hold (a NaN end included)
						}
					} else {
						p = c.wl[i].Power(t)
					}
					q = p / c.vnom
				}
				c.pw[i], c.until[i] = p, u
				cur[i*B+l] = q
			}
			if u < next {
				next = u
			}
		}
		cur[NumCores*B+l] = c.uncoreI
	}
	s.next = next
}

// filledLoad stands in for the Current function of the session
// circuit's loads, which the engine never calls: it takes every load
// current from fillLoads.
func filledLoad(float64) float64 { panic("core: session load evaluated outside fillLoads") }

// LaneGains returns one lane's effective per-core skitter gain
// multipliers.
func (s *BatchSession) LaneGains(lane int) [NumCores]float64 { return s.lanes[lane].gains }

// SetLaneGains overrides one lane's per-core skitter gain multipliers —
// the chip-individual process-variation-and-aging state a population
// study retunes per chip. The override lives entirely in the lane's
// sensor macros and never touches the shared circuit, so lanes
// carrying different chips (aging drift, heterogeneous core classes)
// still ride one factored matrix set. Setting the identical gains is
// free.
func (s *BatchSession) SetLaneGains(lane int, gains [NumCores]float64) error {
	if err := s.checkLane(lane); err != nil {
		return err
	}
	c := &s.lanes[lane]
	if gains == c.gains {
		return nil
	}
	for i, g := range gains {
		if g <= 0 {
			return fmt.Errorf("core: non-positive gain %g for core %d", g, i)
		}
	}
	c.gains = gains
	return s.rebuildMacros(c)
}

// rebuildMacros constructs one lane's per-core skitter macros with
// process-variation gains, calibrated at the lane's effective supply.
func (s *BatchSession) rebuildMacros(c *laneState) error {
	for i := range c.macros {
		sc := s.cfg.Skitter
		sc.Vnom = c.vnom
		sc.Gain *= c.gains[i]
		m, err := skitter.NewMacro(sc)
		if err != nil {
			return err
		}
		c.macros[i] = m
	}
	return nil
}

// ctxCheckSteps is how many integration steps pass between
// cancellation checks (~8 us of simulated time at the default Dt).
const ctxCheckSteps = 4096

// RunBatchContext runs one spec per lane in lockstep and returns one
// Measurement per lane, in lane order. All lanes must share the same
// Start and Warmup — lockstep lanes advance through the same instants —
// while Durations, workloads, Record, and the lane biases may differ:
// the engine steps to the longest lane's end, and a lane whose window
// is over simply stops observing and accumulating (its trajectory up
// to its own end is unaffected by the extra steps). A canceled context
// interrupts the integration mid-window and returns ctx.Err(); the
// session remains reusable afterwards — the next run re-derives all
// state.
func (s *BatchSession) RunBatchContext(ctx context.Context, specs []RunSpec) ([]*Measurement, error) {
	out := make([]*Measurement, len(s.lanes))
	if err := s.run(ctx, specs, out); err != nil {
		return nil, err
	}
	return out, nil
}

// run is RunBatchContext writing lane l's measurement to out[l].
func (s *BatchSession) run(ctx context.Context, specs []RunSpec, out []*Measurement) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) != len(s.lanes) {
		return fmt.Errorf("core: %d specs for a %d-lane batch", len(specs), len(s.lanes))
	}
	warmup := specs[0].Warmup
	if warmup == 0 {
		warmup = DefaultWarmup
	}
	if warmup < 0 {
		return fmt.Errorf("core: negative warmup %g", specs[0].Warmup)
	}
	maxSteps := 0
	for l, sp := range specs {
		if sp.Duration <= 0 {
			return fmt.Errorf("core: lane %d non-positive measurement duration %g", l, sp.Duration)
		}
		if sp.Start != specs[0].Start || sp.Warmup != specs[0].Warmup {
			return fmt.Errorf("core: lane %d window start/warmup (%g,%g) differs from lane 0 (%g,%g); lockstep lanes must share Start and Warmup",
				l, sp.Start, sp.Warmup, specs[0].Start, specs[0].Warmup)
		}
		s.lanes[l].steps = int(math.Round(sp.Duration / s.cfg.Dt))
		maxSteps = max(maxSteps, s.lanes[l].steps)
	}
	start := specs[0].Start
	for l := range s.lanes {
		c := &s.lanes[l]
		for i, w := range specs[l].Workloads {
			if w == nil {
				w = s.idle
			}
			c.wl[i] = w
		}
	}
	s.refreshAliases()
	defer s.release()
	if err := s.bt.Reset(start - warmup); err != nil {
		return err
	}
	// Warmup settles the PDN; mirrors BatchTransient.RunUntil.
	ctr := 0
	for s.bt.Time() < start-s.cfg.Dt/2 {
		if ctr++; ctr >= ctxCheckSteps {
			ctr = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.bt.Step(); err != nil {
			return err
		}
	}

	for l := range s.lanes {
		c := &s.lanes[l]
		sp := &specs[l]
		for _, m := range c.macros {
			m.Reset()
		}
		c.record = sp.Record
		c.energy = 0
		m := &Measurement{Start: start, Duration: sp.Duration}
		if sp.Record {
			for i := range m.Traces {
				t := signal.NewTrace(s.cfg.Dt, c.steps+1)
				t.Start = start
				m.Traces[i] = t
			}
		}
		for i := range m.VMin {
			m.VMin[i] = math.Inf(1)
			m.VMax[i] = math.Inf(-1)
		}
		c.meas = m
	}
	s.observe(0)
	for st := 1; st <= maxSteps; st++ {
		if ctr++; ctr >= ctxCheckSteps {
			ctr = 0
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.bt.Step(); err != nil {
			return err
		}
		s.observe(st)
	}
	for l := range s.lanes {
		c := &s.lanes[l]
		m := c.meas
		for i, mac := range c.macros {
			m.P2P[i] = mac.PeakToPeakPercent()
			m.PosMin[i], m.PosMax[i] = mac.PositionRange()
		}
		m.NominalPos = c.macros[0].Config().NominalPosition()
		m.ChipPowerMilliwatts = int64(math.Round(c.energy / m.Duration * 1000))
		out[l] = m
	}
	return nil
}

// release drops a run's workload and measurement references on every
// exit path, so a pooled session pins neither after a finished,
// canceled or failed run. The holds referenced the workloads too;
// every slot is idle afterwards, so each alias scan stops at the first
// slot.
func (s *BatchSession) release() {
	for l := range s.lanes {
		c := &s.lanes[l]
		c.meas = nil
		for i := range c.wl {
			c.wl[i] = s.idle
		}
	}
	s.refreshAliases()
}

// observe feeds every lane still inside its window the core potentials
// after the given step: skitter samples, voltage extremes, traces, and
// (past the initial point) the chip power fillLoads just sampled.
// Lanes and cores are independent, so only each macro's sample order
// matters.
func (s *BatchSession) observe(step int) {
	for l := range s.lanes {
		c := &s.lanes[l]
		if step > c.steps {
			continue // this lane's window is over
		}
		m := c.meas
		for i := 0; i < NumCores; i++ {
			v := s.coreV[i][l]
			c.macros[i].Sample(v)
			if v < m.VMin[i] {
				m.VMin[i] = v
			}
			if v > m.VMax[i] {
				m.VMax[i] = v
			}
			if c.record {
				m.Traces[i].Samples[step] = v
			}
		}
		if step > 0 {
			// Chip power: devices' draw (cores + uncore) at this instant.
			pw := s.cfg.UncorePower
			for i := 0; i < NumCores; i++ {
				pw += c.pw[i]
			}
			c.energy += pw * s.cfg.Dt
		}
	}
}
