package pdn

import (
	"fmt"
)

// BatchTransient integrates a circuit forward in time with the
// trapezoidal rule, advancing B independent load lanes in lockstep.
// Reactive elements are replaced by their companion models: a constant
// conductance (folded once into the nodal matrix, which is then
// LU-factored once) plus a history current source recomputed each
// step. This is the standard SPICE formulation and is A-stable, so
// resonant PDNs integrate robustly at any step size that resolves the
// waveforms of interest.
//
// Every lane sees the same topology and element values — the companion
// and DC matrices are stamped and factored exactly once — but each lane
// evaluates the circuit's loads against its own state (selected through
// the onLane hook) and may pin fixed supplies to lane-specific
// potentials. The per-step solve becomes a multi-RHS substitution over
// a contiguous n×B block, and the step-plan walk is amortized across
// all lanes, so a width-8 batch costs far less than eight width-1 runs.
//
// Lane state is laid out lane-innermost (row i, lane l at i*B+l): the
// hot loops stream contiguous lane-width runs and carry B independent
// floating-point dependency chains. Width 1 is one lane shape among
// the others: per lane, each step performs the same floating-point
// operations in the same order at every width — batching interleaves
// work across lanes, never reorders it within one.
type BatchTransient struct {
	c     *Circuit
	dt    float64
	lanes int
	lu    *realLU
	dcLU  *realLU // DC operating-point factorization (inductors shorted)
	idx   []int   // NodeID -> unknown index or -1
	n     int     // number of unknowns

	// idxP maps NodeID to the unknown's slot in lu's permuted row order
	// (invPerm[idx[node]], or -1): Step assembles the right-hand sides
	// directly in that order so the solve runs in place, skipping a
	// per-step gather copy. unkNode is the inverse scatter map —
	// unkNode[i] is the node whose solved potential sits at slot i after
	// the in-place substitutions.
	idxP    []int
	unkNode []int32

	// onLane selects a lane before its loads are evaluated, so the
	// owner can swap the workload state the load closures read.
	onLane func(lane int)

	// Per-element companion state; the lane dimension is innermost.
	// vab/ibr hold the DC operating point only: past the first step,
	// branch state lives in hist (the trapezoidal history source) and
	// BranchCurrent derives currents on demand from the node potentials.
	geq  []float64 // companion conductance per element (shared by lanes)
	vab  []float64 // branch voltage per element x lane (DC point)
	ibr  []float64 // branch current per element x lane (a -> b, DC point)
	hist []float64 // companion history source per element x lane
	pots []float64 // node potentials per node x lane

	// fixedPot holds the per-lane potential of every fixed node
	// (node x lane), seeded from the circuit at construction. It is
	// engine-owned state: retune supplies with SetLaneFixed, not
	// Circuit.FixNode — later FixNode calls are not observed here.
	fixedPot []float64

	plan   []stepElem // per-step RHS contributors, in element order
	planFA []float64  // fixed-node contributions per plan entry x lane
	planFB []float64

	// rhs holds the n x lanes right-hand sides, assembled directly in
	// permuted row order; the substitutions run in place in this buffer,
	// so no separate solution block exists.
	rhs []float64

	laneRHS []float64 // n-vector scratch for the per-lane DC init
	laneSol []float64

	time float64
	step int
}

// stepElem is one element's per-step RHS work, precomputed so Step
// walks a compact list instead of re-deriving index lookups every
// timestep. Resistors touching no fixed node contribute nothing to the
// RHS and are dropped from the plan; the remaining contributions keep
// element insertion order, so the floating-point accumulation follows
// the naive element loop exactly.
type stepElem struct {
	kind         elementKind
	ei           int     // element index (companion state slot)
	geq          float64 // companion conductance
	na, nb       int     // node indices (for potential lookups)
	iaP, ibP     int     // unknown RHS slots in permuted row order (-1: grounded or fixed)
	hasFA, hasFB bool    // a fixed-node contribution lands at iaP (FA) or ibP (FB)
	// hp and hm are the RHS slots the history source is added to and
	// subtracted from (-1: none). A capacitor's history current flows
	// a -> b in the RHS, an inductor's b -> a.
	hp, hm int
}

// NewBatchTransient prepares a lockstep batch simulation of c with
// fixed timestep dt, starting at time zero. See NewBatchTransientAt.
func NewBatchTransient(c *Circuit, dt float64, lanes int, onLane func(lane int)) (*BatchTransient, error) {
	return NewBatchTransientAt(c, dt, 0, lanes, onLane)
}

// NewBatchTransientAt prepares a lockstep batch simulation of c with
// fixed timestep dt and the given lane count, starting at simulation
// time start. onLane (may be nil) is invoked with the lane index
// immediately before that lane's loads are evaluated — during
// construction, Reset, and every Step — so load closures shared by all
// lanes can read lane-local workload state. Each lane starts at its own
// DC operating point (inductors shorted, capacitors open, loads
// evaluated at the start time), so a well-formed circuit starts in
// steady state and shows no artificial start-up transient.
func NewBatchTransientAt(c *Circuit, dt, start float64, lanes int, onLane func(lane int)) (*BatchTransient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("pdn: non-positive timestep %g", dt)
	}
	if lanes < 1 {
		return nil, fmt.Errorf("pdn: batch lane count %d, want >= 1", lanes)
	}
	idx, n := c.unknowns()
	if n == 0 {
		return nil, fmt.Errorf("pdn: circuit has no unknown nodes")
	}
	t := &BatchTransient{
		c: c, dt: dt, lanes: lanes, idx: idx, n: n, time: start,
		onLane:   onLane,
		vab:      make([]float64, len(c.elements)*lanes),
		ibr:      make([]float64, len(c.elements)*lanes),
		hist:     make([]float64, len(c.elements)*lanes),
		pots:     make([]float64, c.NumNodes()*lanes),
		fixedPot: make([]float64, c.NumNodes()*lanes),
		rhs:      make([]float64, n*lanes),
		laneRHS:  make([]float64, n),
		laneSol:  make([]float64, n),
	}
	t.seedFixed()
	geq, lu, err := stampCompanion(c, dt, idx, n)
	if err != nil {
		return nil, err
	}
	t.geq, t.lu = geq, lu
	t.idxP, t.unkNode = permutedIndex(idx, lu)
	dcLU, err := factorDCMatrix(c, idx, n)
	if err != nil {
		return nil, err
	}
	t.dcLU = dcLU
	t.buildPlan()
	t.initState()
	return t, nil
}

// seedFixed copies the circuit's fixed-node potentials into every
// lane.
func (t *BatchTransient) seedFixed() {
	for node, i := range t.idx {
		if i >= 0 {
			continue
		}
		v := t.c.potentialOfFixed(NodeID(node))
		for l := 0; l < t.lanes; l++ {
			t.fixedPot[node*t.lanes+l] = v
		}
	}
}

// Lanes returns the batch width.
func (t *BatchTransient) Lanes() int { return t.lanes }

// Time returns the current simulation time in seconds.
func (t *BatchTransient) Time() float64 { return t.time }

// Dt returns the fixed timestep.
func (t *BatchTransient) Dt() float64 { return t.dt }

// SetLaneFixed pins a fixed node to a lane-specific potential. The
// node must already be fixed in the circuit — fixed-node potentials
// enter only the right-hand side, so lanes can run at different supply
// settings against the same factored matrices. The new potential takes
// effect at the next Reset.
func (t *BatchTransient) SetLaneFixed(lane int, n NodeID, volts float64) error {
	t.c.checkNode(n)
	if lane < 0 || lane >= t.lanes {
		return fmt.Errorf("pdn: lane %d out of range [0,%d)", lane, t.lanes)
	}
	if _, ok := t.c.FixedVoltage(n); !ok {
		return fmt.Errorf("pdn: SetLaneFixed on %q, which is not a fixed node", t.c.NodeName(n))
	}
	t.fixedPot[int(n)*t.lanes+lane] = volts
	return nil
}

// Voltage returns the potential of node n in the given lane at the
// current time.
func (t *BatchTransient) Voltage(lane int, n NodeID) float64 {
	t.c.checkNode(n)
	return t.pots[int(n)*t.lanes+lane]
}

// LaneVoltages returns the potentials of node n for every lane, lane l
// at index l. The returned slice is a read-only live view into engine
// state — it tracks every later Step and Reset — so per-step observers
// can fetch a node's row once and read it after each step.
func (t *BatchTransient) LaneVoltages(n NodeID) []float64 {
	t.c.checkNode(n)
	return t.pots[int(n)*t.lanes : (int(n)+1)*t.lanes]
}

// BranchCurrent returns the current (a -> b) through element i in
// insertion order, for the given lane. Exported for white-box testing.
//
// Past the first step, currents are derived on demand from the node
// potentials and the cached history source — the exact expressions a
// per-step branch-state update would have stored, so readings are
// bit-identical to an engine that materialized them. At the DC
// operating point (before the first Step, or right after Reset) the
// stored DC values are returned instead: initState computes resistor
// current as (va-vb)/R, which can differ from v*geq in the last ULP.
func (t *BatchTransient) BranchCurrent(lane, i int) float64 {
	if t.step == 0 {
		return t.ibr[i*t.lanes+lane]
	}
	e := t.c.elements[i]
	v := t.pots[int(e.a)*t.lanes+lane] - t.pots[int(e.b)*t.lanes+lane]
	switch e.kind {
	case kindCapacitor:
		return t.geq[i]*v - t.hist[i*t.lanes+lane]
	case kindInductor:
		return t.geq[i]*v + t.hist[i*t.lanes+lane]
	default: // resistor
		return v * t.geq[i]
	}
}

// Reset rewinds all lanes to the given start time and re-derives each
// lane's DC operating point from the circuit's current loads and the
// lane's fixed potentials. Neither nodal matrix is re-stamped or
// re-factored, so a session can retune lane supplies, swap what the
// load closures compute, and restart from here at the cost of one
// linear solve per lane.
func (t *BatchTransient) Reset(start float64) error {
	t.time = start
	t.step = 0
	t.buildPlan()
	t.initState()
	return nil
}

// buildPlan captures the per-step RHS contributions, snapshotting each
// lane's fixed-node potentials in effect now. The entry list (and so
// the accumulation order per lane) depends only on topology, never on
// lane state.
func (t *BatchTransient) buildPlan() {
	t.plan = t.plan[:0]
	for ei, e := range t.c.elements {
		ia, ib := t.idx[e.a], t.idx[e.b]
		pe := stepElem{kind: e.kind, ei: ei, geq: t.geq[ei], na: int(e.a), nb: int(e.b), hp: -1, hm: -1}
		pe.iaP, pe.ibP = t.idxP[e.a], t.idxP[e.b]
		pe.hasFA = ia >= 0 && ib < 0
		pe.hasFB = ib >= 0 && ia < 0
		switch e.kind {
		case kindResistor:
			if !pe.hasFA && !pe.hasFB {
				continue // no history source, no fixed contribution
			}
		case kindCapacitor:
			pe.hp, pe.hm = pe.iaP, pe.ibP
		case kindInductor:
			pe.hp, pe.hm = pe.ibP, pe.iaP
		}
		t.plan = append(t.plan, pe)
	}
	B := t.lanes
	if need := len(t.plan) * B; cap(t.planFA) < need {
		t.planFA = make([]float64, need)
		t.planFB = make([]float64, need)
	} else {
		t.planFA = t.planFA[:need]
		t.planFB = t.planFB[:need]
	}
	for pi := range t.plan {
		pe := &t.plan[pi]
		for l := 0; l < B; l++ {
			if pe.hasFA {
				t.planFA[pi*B+l] = pe.geq * t.fixedPot[pe.nb*B+l]
			}
			if pe.hasFB {
				t.planFB[pi*B+l] = pe.geq * t.fixedPot[pe.na*B+l]
			}
		}
	}
}

// initState derives each lane's initial condition from its DC
// operating point: loads evaluated at the current simulation time (for
// that lane, via onLane) against the cached DC factorization.
func (t *BatchTransient) initState() {
	c := t.c
	B := t.lanes
	for l := 0; l < B; l++ {
		rhs, sol := t.laneRHS, t.laneSol
		clear(rhs)
		// Fixed-node contributions move to the RHS.
		for _, e := range c.elements {
			ge, ok := dcConductance(e)
			if !ok {
				continue
			}
			ia, ib := t.idx[e.a], t.idx[e.b]
			if ia >= 0 && ib < 0 {
				rhs[ia] += ge * t.fixedPot[int(e.b)*B+l]
			}
			if ib >= 0 && ia < 0 {
				rhs[ib] += ge * t.fixedPot[int(e.a)*B+l]
			}
		}
		if t.onLane != nil {
			t.onLane(l)
		}
		for _, ld := range c.loads {
			if i := t.idx[ld.Node]; i >= 0 {
				rhs[i] -= ld.Current(t.time)
			}
		}
		t.dcLU.solveInto(sol, rhs)
		for node, i := range t.idx {
			if i >= 0 {
				t.pots[node*B+l] = sol[i]
			} else {
				t.pots[node*B+l] = t.fixedPot[node*B+l]
			}
		}
		// Branch states from the DC solution.
		for ei, e := range c.elements {
			va, vb := t.pots[int(e.a)*B+l], t.pots[int(e.b)*B+l]
			t.vab[ei*B+l] = va - vb
			switch e.kind {
			case kindResistor:
				t.ibr[ei*B+l] = (va - vb) / e.value
			case kindInductor:
				t.ibr[ei*B+l] = (va - vb) / dcShortOhms
				t.vab[ei*B+l] = 0 // an ideal inductor carries no DC voltage
			case kindCapacitor:
				t.ibr[ei*B+l] = 0
			}
		}
		// Seed the history sources the first Step will consume, with
		// the exact expressions the step walk uses thereafter.
		for ei, e := range c.elements {
			switch e.kind {
			case kindCapacitor:
				t.hist[ei*B+l] = t.geq[ei]*t.vab[ei*B+l] + t.ibr[ei*B+l]
			case kindInductor:
				t.hist[ei*B+l] = t.ibr[ei*B+l] + t.geq[ei]*t.vab[ei*B+l]
			}
		}
	}
}

// Step advances every lane by one timestep. It allocates nothing.
//
// Width 1 walks the plan with scalar state; every other width walks it
// over lane blocks (stepBlocks), instantiated for the three widths the
// register-blocked substitution kernels serve (4, 8 and 16) and once
// for the rest. Both bodies perform the same per-lane arithmetic in the
// same order. On divergence the engine state is abandoned with the
// error.
func (t *BatchTransient) Step() error {
	next := t.time + t.dt
	var bad int
	switch t.lanes {
	case 1:
		bad = t.stepScalar(next)
	case NarrowBatchLanes:
		bad = stepBlocks[*[NarrowBatchLanes]float64](t, next)
	case DefaultBatchLanes:
		bad = stepBlocks[*[DefaultBatchLanes]float64](t, next)
	case WideBatchLanes:
		bad = stepBlocks[*[WideBatchLanes]float64](t, next)
	default:
		bad = stepBlocks[[]float64](t, next)
	}
	if bad >= 0 {
		return fmt.Errorf("pdn: integration diverged at t=%g (lane %d)", next, bad)
	}
	t.time = next
	t.step++
	return nil
}

// stepScalar is the width-1 step. It returns -1, or 0 if the lane
// diverged.
//
// The walk adds the history sources and fixed-node conductance
// contributions from the precomputed plan. On every step after the
// first it also rolls each reactive element's companion state forward
// from the potentials the last solve produced — the arithmetic of a
// separate end-of-step update pass, fused so each element's state
// streams through the cache once per step. RHS writes land at permuted
// slots so the solve runs in place: per unknown the accumulation order
// is untouched (one unknown, one slot), only the slot's address moves.
func (t *BatchTransient) stepScalar(next float64) (bad int) {
	rhs, hist, pots := t.rhs, t.hist, t.pots
	plan, planFA, planFB := t.plan, t.planFA, t.planFB
	clear(rhs)
	first := t.step == 0
	for pi := range plan {
		pe := &plan[pi]
		if pe.hasFA {
			rhs[pe.iaP] += planFA[pi]
		}
		if pe.hasFB {
			rhs[pe.ibP] += planFB[pi]
		}
		var h float64
		switch pe.kind {
		case kindCapacitor:
			// i(t+dt) = geq*v(t+dt) - hist, hist = geq*v(t) + i(t).
			h = hist[pe.ei]
			if !first {
				gv := pe.geq * (pots[pe.na] - pots[pe.nb])
				h = gv + (gv - h)
				hist[pe.ei] = h
			}
		case kindInductor:
			// i(t+dt) = geq*v(t+dt) + hist, hist = i(t) + geq*v(t).
			h = hist[pe.ei]
			if !first {
				gv := pe.geq * (pots[pe.na] - pots[pe.nb])
				h = (gv + h) + gv
				hist[pe.ei] = h
			}
		default:
			continue // a resistor carries no history source
		}
		if pe.hp >= 0 {
			rhs[pe.hp] += h
		}
		if pe.hm >= 0 {
			rhs[pe.hm] -= h
		}
	}
	// Loads evaluated at the new time (backward-looking sources keep the
	// trapezoidal solve linear).
	if t.onLane != nil {
		t.onLane(0)
	}
	for _, ld := range t.c.loads {
		if i := t.idxP[ld.Node]; i >= 0 {
			rhs[i] -= ld.Current(next)
		}
	}
	t.lu.solveInPlace(rhs)
	// Scatter the solved unknowns, checking for divergence in the same
	// pass (v-v is 0 for every finite v and NaN for NaN and ±Inf).
	// Fixed-node potentials are not rewritten here: they change only
	// through Reset, which re-scatters them via initState.
	bad = -1
	for i, node := range t.unkNode {
		v := rhs[i]
		if v-v != 0 {
			bad = 0
		}
		pots[node] = v
	}
	return bad
}

// laneBlock is the set of lane-block shapes: an array pointer for each
// register-blocked width, a slice for the rest.
type laneBlock interface {
	*[NarrowBatchLanes]float64 | *[DefaultBatchLanes]float64 | *[WideBatchLanes]float64 | []float64
}

// stepBlocks is the step at widths other than 1: stepScalar's walk with
// every scalar replaced by a block of lane values. P is the block
// shape: a fixed-size array pointer at the register-blocked widths, so
// the width is a compile-time constant and the lane loops run without
// bounds checks, or a slice for every other width. It returns -1, or
// the last lane that diverged.
func stepBlocks[P laneBlock](t *BatchTransient, next float64) (bad int) {
	var zero P
	B := len(zero)
	if B == 0 {
		B = t.lanes
	}
	rhs, hist, pots := t.rhs, t.hist, t.pots
	plan, planFA, planFB := t.plan, t.planFA, t.planFB
	clear(rhs)
	first := t.step == 0
	for pi := range plan {
		pe := &plan[pi]
		if pe.hasFA {
			fa, ra := blk[P](planFA, pi, B), blk[P](rhs, pe.iaP, B)
			for l := 0; l < B; l++ {
				ra[l] += fa[l]
			}
		}
		if pe.hasFB {
			fb, rb := blk[P](planFB, pi, B), blk[P](rhs, pe.ibP, B)
			for l := 0; l < B; l++ {
				rb[l] += fb[l]
			}
		}
		if pe.kind == kindResistor {
			continue
		}
		geq := pe.geq
		h := blk[P](hist, pe.ei, B)
		if !first {
			pa, pb := blk[P](pots, pe.na, B), blk[P](pots, pe.nb, B)
			if pe.kind == kindCapacitor {
				for l := 0; l < B; l++ {
					gv := geq * (pa[l] - pb[l])
					h[l] = gv + (gv - h[l])
				}
			} else {
				for l := 0; l < B; l++ {
					gv := geq * (pa[l] - pb[l])
					h[l] = (gv + h[l]) + gv
				}
			}
		}
		switch hp, hm := pe.hp, pe.hm; {
		case hp >= 0 && hm >= 0:
			rp, rm := blk[P](rhs, hp, B), blk[P](rhs, hm, B)
			for l := 0; l < B; l++ {
				rp[l] += h[l]
				rm[l] -= h[l]
			}
		case hp >= 0:
			rp := blk[P](rhs, hp, B)
			for l := 0; l < B; l++ {
				rp[l] += h[l]
			}
		case hm >= 0:
			rm := blk[P](rhs, hm, B)
			for l := 0; l < B; l++ {
				rm[l] -= h[l]
			}
		}
	}
	// Loads evaluated at the new time, lane by lane (backward-looking
	// sources keep the trapezoidal solve linear).
	for l := 0; l < B; l++ {
		if t.onLane != nil {
			t.onLane(l)
		}
		for _, ld := range t.c.loads {
			if i := t.idxP[ld.Node]; i >= 0 {
				rhs[i*B+l] -= ld.Current(next)
			}
		}
	}
	t.lu.solveBatchInPlace(rhs, B)
	// Scatter and divergence check, as in stepScalar (element-wise: a
	// whole-block array assignment lowers to a runtime.memmove call).
	bad = -1
	for i, node := range t.unkNode {
		po, so := blk[P](pots, int(node), B), blk[P](rhs, i, B)
		for l := 0; l < B; l++ {
			v := so[l]
			if v-v != 0 {
				bad = l
			}
			po[l] = v
		}
	}
	return bad
}

// blk returns row i of the lane-innermost block s (lanes i*B..i*B+B)
// in block shape P. Slicing to exactly B lanes lets the compiler prove
// every lane index below B in bounds for the slice shape too.
func blk[P laneBlock](s []float64, i, B int) P {
	return P(s[i*B:][:B])
}

// RunUntil advances all lanes until the given absolute time without
// recording anything. Useful for warm-up.
func (t *BatchTransient) RunUntil(until float64) error {
	for t.time < until-t.dt/2 {
		if err := t.Step(); err != nil {
			return err
		}
	}
	return nil
}
