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
// draws its own load currents (written for every lane at once by the
// engine's fill) and may pin fixed supplies to lane-specific
// potentials. The per-step work is three passes over contiguous n×B
// blocks — history update, right-hand-side gather, in-place
// substitution — whose index walks are paid once for all lanes, so a
// width-8 batch costs far less than eight width-1 runs.
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

	// x is the solve block and the node state in one. Rows 0..n-1 carry
	// each step's right-hand sides in lu's permuted row order, and the
	// in-place substitutions leave unknown i's potential at row i; the
	// rows after them hold the ground and fixed-node potentials, written
	// by initState. xRow[node] is the node's row, so every potential is
	// read where the solve left it and nothing is scattered.
	x    []float64
	xRow []int32

	// fill writes every load's current for every lane at a given time
	// into cur (load k, lane l at k*lanes+l); nil evaluates each
	// Load.Current once per lane, for the loads at unknown nodes.
	fill func(t float64, cur []float64)

	// src is the gather's source block: the history sources (hist), the
	// fixed-node contributions (fixc) and the load slab (cur), in that
	// order, one row per source.
	src, hist, fixc, cur []float64

	// Per-element companion state; the lane dimension is innermost.
	// ibr holds the DC operating point only: past the first step,
	// branch state lives in hist (the trapezoidal history source) and
	// BranchCurrent derives currents on demand from the node potentials.
	geq []float64 // companion conductance per element (shared by lanes)
	ibr []float64 // branch current per element x lane (a -> b, DC point)

	// fixedPot holds the per-lane potential of every fixed node
	// (node x lane), seeded from the circuit at construction. It is
	// engine-owned state: retune supplies with SetLaneFixed, not
	// Circuit.FixNode — later FixNode calls are not observed here.
	fixedPot []float64

	// The history pass: reactive element e (capacitors first, then
	// inductors, each in element order; caps of them are capacitors)
	// owns hist row e and reads the x rows histA[e] and histB[e] of its
	// terminals with conductance histG[e]. histRow maps an element to
	// its hist row, or -1 for a resistor.
	histA, histB []int32
	histG        []float64
	caps         int
	histRow      []int32

	// Fixed-node contribution f is fixG[f] times the lane's potential of
	// node fixNode[f]; fixedContributions refreshes fixc from them.
	fixG    []float64
	fixNode []int32

	// The gather, one CSR row per permuted right-hand-side row r:
	// entries gPtr[r]..gPtr[r+1] name a src row gCol[k] and a sign
	// gCoef[k] = ±1, in the order an element-order walk adds into r.
	gPtr, gCol []int32
	gCoef      []float64
	gRow       []int32 // entry k's row, for the Go bodies' flat walk

	laneRHS []float64 // n-vector scratch for the per-lane DC init
	laneSol []float64

	time float64
	step int
}

// NewBatchTransientAt prepares a lockstep batch simulation of c with
// fixed timestep dt and the given lane count, starting at simulation
// time start.
//
// fill supplies the load currents: called once at the start time
// during construction and Reset, and once per Step at the new time, it
// writes the current of every load of c (in insertion order) for every
// lane into cur, load k of lane l at cur[k*lanes+l]. Entries of loads
// at fixed nodes are ignored. With a nil fill the engine calls each
// Load.Current once per lane instead, skipping loads at fixed nodes;
// Load.Current is consulted only then.
//
// Each lane starts at its own DC operating point (inductors shorted,
// capacitors open, loads evaluated at the start time), so a
// well-formed circuit starts in steady state and shows no artificial
// start-up transient.
func NewBatchTransientAt(c *Circuit, dt, start float64, lanes int, fill func(t float64, cur []float64)) (*BatchTransient, error) {
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
		fill:     fill,
		ibr:      make([]float64, len(c.elements)*lanes),
		fixedPot: make([]float64, c.NumNodes()*lanes),
		laneRHS:  make([]float64, n),
		laneSol:  make([]float64, n),
	}
	for node, i := range idx {
		if i >= 0 {
			continue
		}
		v := c.potentialOfFixed(NodeID(node))
		for l := 0; l < lanes; l++ {
			t.fixedPot[node*lanes+l] = v
		}
	}
	geq, lu, err := stampCompanion(c, dt, idx, n)
	if err != nil {
		return nil, err
	}
	t.geq, t.lu = geq, lu
	dcLU, err := factorDCMatrix(c, idx, n)
	if err != nil {
		return nil, err
	}
	t.dcLU = dcLU
	t.buildPlan()
	t.fixedContributions()
	t.initState()
	return t, nil
}

// Lanes returns the batch width.
func (t *BatchTransient) Lanes() int { return t.lanes }

// Time returns the current simulation time in seconds.
func (t *BatchTransient) Time() float64 { return t.time }

// Dt returns the fixed timestep.
func (t *BatchTransient) Dt() float64 { return t.dt }

// SetLaneFixed pins a fixed node to a lane-specific potential. The
// node must already be fixed in the circuit, and may not be ground,
// whose potential is always 0 — fixed-node potentials enter only the
// right-hand side, so lanes can run at different supply settings
// against the same factored matrices. The new potential takes effect
// at the next Reset.
func (t *BatchTransient) SetLaneFixed(lane int, n NodeID, volts float64) error {
	t.c.checkNode(n)
	if lane < 0 || lane >= t.lanes {
		return fmt.Errorf("pdn: lane %d out of range [0,%d)", lane, t.lanes)
	}
	if n == Ground {
		return fmt.Errorf("pdn: SetLaneFixed on ground, whose potential is always 0")
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
	return t.x[int(t.xRow[n])*t.lanes+lane]
}

// LaneVoltages returns the potentials of node n for every lane, lane l
// at index l. The returned slice is a read-only live view into engine
// state — it tracks every later Step and Reset — so per-step observers
// can fetch a node's row once and read it after each step.
func (t *BatchTransient) LaneVoltages(n NodeID) []float64 {
	t.c.checkNode(n)
	r := int(t.xRow[n])
	return t.x[r*t.lanes : (r+1)*t.lanes]
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
	e, B := t.c.elements[i], t.lanes
	v := t.x[int(t.xRow[e.a])*B+lane] - t.x[int(t.xRow[e.b])*B+lane]
	switch e.kind {
	case kindCapacitor:
		return t.geq[i]*v - t.hist[int(t.histRow[i])*B+lane]
	case kindInductor:
		return t.geq[i]*v + t.hist[int(t.histRow[i])*B+lane]
	default: // resistor
		return v * t.geq[i]
	}
}

// Reset rewinds all lanes to the given start time and re-derives each
// lane's DC operating point from the circuit's current loads and the
// lane's fixed potentials. Neither nodal matrix is re-stamped or
// re-factored, so a session can retune lane supplies, swap what its
// fill computes, and restart from here at the cost of one linear solve
// per lane.
func (t *BatchTransient) Reset(start float64) error {
	t.time = start
	t.step = 0
	t.fixedContributions()
	t.initState()
	return nil
}

// buildPlan lays out the node rows of x, the source rows of src and
// the lists of the history and gather passes. Everything it derives
// depends only on topology, never on lane state, so it runs once per
// engine.
//
// The gather reproduces the element-order walk of the trapezoidal
// right-hand side: per element, its fixed-node conductance
// contribution (geq times the fixed potential, added at the unknown
// terminal's row; see fixedTerm for why ground's are left out), then
// its history source (a capacitor's added at a and subtracted at b, an
// inductor's the other way round); then the loads, each subtracted at
// its node's row, in load order. Row r's entries keep the order in
// which that walk touches r, so the gather's accumulation per row is
// the walk's.
func (t *BatchTransient) buildPlan() {
	c, idx, n := t.c, t.idx, t.n
	nodes, elems, loads := c.NumNodes(), len(c.elements), len(c.loads)
	reactive, fixes, entries := 0, 0, 0
	for _, e := range c.elements {
		if t.fixedTerm(e) {
			fixes++
		}
		if e.kind == kindResistor {
			continue
		}
		if e.kind == kindCapacitor {
			t.caps++
		}
		reactive++
		if idx[e.a] >= 0 {
			entries++
		}
		if idx[e.b] >= 0 {
			entries++
		}
	}
	entries += fixes
	for _, ld := range c.loads {
		if idx[ld.Node] >= 0 {
			entries++
		}
	}

	ints := make([]int32, nodes+elems+2*reactive+fixes+n+1+2*entries)
	cut := func(m int) []int32 {
		s := ints[:m:m]
		ints = ints[m:]
		return s
	}
	t.xRow, t.histRow = cut(nodes), cut(elems)
	t.histA, t.histB, t.fixNode = cut(reactive), cut(reactive), cut(fixes)
	t.gPtr, t.gCol, t.gRow = cut(n+1), cut(entries), cut(entries)
	floats := make([]float64, reactive+fixes+entries)
	t.histG, t.fixG, t.gCoef = floats[:reactive:reactive], floats[reactive:reactive+fixes:reactive+fixes], floats[reactive+fixes:]

	B := t.lanes
	buf := make([]float64, (nodes+reactive+fixes+loads)*B)
	t.x, t.src = buf[:nodes*B:nodes*B], buf[nodes*B:]
	t.hist = t.src[: reactive*B : reactive*B]
	t.fixc = t.src[reactive*B : (reactive+fixes)*B : (reactive+fixes)*B]
	t.cur = t.src[(reactive+fixes)*B:]

	// Unknown u sits at row u; ground and the fixed nodes follow.
	next := n
	for node, i := range idx {
		if i < 0 {
			i, next = next, next+1
		}
		t.xRow[node] = int32(i)
	}
	capRow, indRow, f := 0, t.caps, 0
	for ei, e := range c.elements {
		h := -1
		switch e.kind {
		case kindCapacitor:
			h, capRow = capRow, capRow+1
		case kindInductor:
			h, indRow = indRow, indRow+1
		}
		t.histRow[ei] = int32(h)
		if h >= 0 {
			t.histA[h], t.histB[h], t.histG[h] = t.xRow[e.a], t.xRow[e.b], t.geq[ei]
		}
		if t.fixedTerm(e) {
			fixed := e.b
			if idx[e.b] >= 0 {
				fixed = e.a
			}
			t.fixG[f], t.fixNode[f] = t.geq[ei], int32(fixed)
			f++
		}
	}

	// Count each row's entries, then fill them, advancing gPtr[r] as
	// row r's cursor, and shift the cursors back into row starts.
	t.walkRHS(func(r, _ int, _ float64) { t.gPtr[r+1]++ })
	for r := 1; r <= n; r++ {
		t.gPtr[r] += t.gPtr[r-1]
	}
	t.walkRHS(func(r, s int, coef float64) {
		k := t.gPtr[r]
		t.gCol[k], t.gCoef[k], t.gRow[k] = int32(s), coef, int32(r)
		t.gPtr[r]++
	})
	copy(t.gPtr[1:], t.gPtr[:n])
	t.gPtr[0] = 0
}

// walkRHS visits, in the element-order walk's order, every
// right-hand-side contribution: the permuted row r it lands at, its
// src row s, and the sign c of the gather's acc -= c*src (-1 for an
// add, +1 for a subtraction). Fixed-node contributions are numbered
// in element order, as buildPlan lists them.
func (t *BatchTransient) walkRHS(visit func(r, s int, c float64)) {
	idx, inv := t.idx, t.lu.invPerm
	slot := func(node NodeID) int {
		if i := idx[node]; i >= 0 {
			return inv[i]
		}
		return -1
	}
	reactive, fixes := len(t.histG), len(t.fixG)
	f := 0
	for ei, e := range t.c.elements {
		pa, pb := slot(e.a), slot(e.b)
		if t.fixedTerm(e) {
			visit(max(pa, pb), reactive+f, -1)
			f++
		}
		if e.kind == kindResistor {
			continue
		}
		hp, hm := pa, pb
		if e.kind == kindInductor {
			hp, hm = pb, pa
		}
		h := int(t.histRow[ei])
		if hp >= 0 {
			visit(hp, h, -1)
		}
		if hm >= 0 {
			visit(hm, h, 1)
		}
	}
	for k, ld := range t.c.loads[:len(t.cur)/t.lanes] {
		if r := slot(ld.Node); r >= 0 {
			visit(r, reactive+fixes+k, 1)
		}
	}
}

// fixedTerm reports whether element e adds a fixed-node conductance
// term to the right-hand side: whether it joins an unknown node to a
// fixed node other than ground. A term through ground is geq*0 = ±0,
// which the gather may leave out without changing a bit: its
// accumulators start at +0 and so never hold -0, and subtracting ±0
// from anything else leaves it as it is. SetLaneFixed refuses ground,
// so that potential stays 0.
func (t *BatchTransient) fixedTerm(e element) bool {
	return (t.idx[e.a] >= 0) != (t.idx[e.b] >= 0) && e.a != Ground && e.b != Ground
}

// fixedContributions snapshots each lane's fixed-node conductance
// contributions from the fixed potentials in effect now.
func (t *BatchTransient) fixedContributions() {
	B := t.lanes
	for f, g := range t.fixG {
		node := int(t.fixNode[f])
		for l := 0; l < B; l++ {
			t.fixc[f*B+l] = g * t.fixedPot[node*B+l]
		}
	}
}

// loadCurrents fills the load slab at time at: through the engine's
// fill, or with each Load.Current once per lane, lane by lane, for the
// loads at unknown nodes.
func (t *BatchTransient) loadCurrents(at float64) {
	if t.fill != nil {
		t.fill(at, t.cur)
		return
	}
	B := t.lanes
	loads := t.c.loads[:len(t.cur)/B]
	for l := 0; l < B; l++ {
		for k, ld := range loads {
			if t.idx[ld.Node] >= 0 {
				t.cur[k*B+l] = ld.Current(at)
			}
		}
	}
}

// initState derives each lane's initial condition from its DC
// operating point: loads evaluated at the current simulation time
// against the cached DC factorization.
func (t *BatchTransient) initState() {
	c, x := t.c, t.x
	B := t.lanes
	t.loadCurrents(t.time)
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
		for k, ld := range c.loads[:len(t.cur)/B] {
			if i := t.idx[ld.Node]; i >= 0 {
				rhs[i] -= t.cur[k*B+l]
			}
		}
		t.dcLU.solveInto(sol, rhs)
		for node, i := range t.idx {
			if i >= 0 {
				x[i*B+l] = sol[i]
			} else {
				x[int(t.xRow[node])*B+l] = t.fixedPot[node*B+l]
			}
		}
		// Branch states from the DC solution, and the history sources
		// the first Step will consume, seeded with the exact expressions
		// the history pass uses thereafter.
		for ei, e := range c.elements {
			v := x[int(t.xRow[e.a])*B+l] - x[int(t.xRow[e.b])*B+l]
			var i float64
			switch e.kind {
			case kindResistor:
				i = v / e.value
			case kindInductor:
				i = v / dcShortOhms
				v = 0 // an ideal inductor carries no DC voltage
			}
			t.ibr[ei*B+l] = i
			h := int(t.histRow[ei])*B + l
			switch e.kind {
			case kindCapacitor:
				t.hist[h] = t.geq[ei]*v + i
			case kindInductor:
				t.hist[h] = i + t.geq[ei]*v
			}
		}
	}
}

// Step advances every lane by one timestep. It allocates nothing.
//
// A step is three passes, in the same order at every width: the
// history pass rolls each reactive element's companion source forward
// from the potentials the last solve left in x (skipped on the first
// step, whose sources initState seeded); the gather assembles every
// right-hand-side row from the history sources, the fixed-node
// contributions and the load slab the fill just wrote; and the
// in-place substitution solves the block, leaving the new potentials
// where the next step and every reader find them, and reports the
// lanes holding a non-finite potential.
//
// Width 1 runs the passes with scalar state (stepScalar); every other
// width runs them over lane blocks (stepBlocks), instantiated for the
// three register-blocked widths (4, 8 and 16), whose passes run in
// AVX2 kernels where the host has them, and once for the rest. Every
// body performs the same per-lane arithmetic in the same order. On
// divergence the engine state is abandoned with an error naming the
// highest lane that diverged.
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
func (t *BatchTransient) stepScalar(next float64) int {
	x, hist := t.x, t.hist
	t.loadCurrents(next)
	if t.step > 0 {
		a, b, g := t.histA, t.histB[:len(t.histA)], t.histG[:len(t.histA)]
		caps := t.caps
		for e := 0; e < caps; e++ {
			// i(t+dt) = geq*v(t+dt) - hist, hist = geq*v(t) + i(t).
			gv := g[e] * (x[a[e]] - x[b[e]])
			hist[e] = gv + (gv - hist[e])
		}
		for e := caps; e < len(a); e++ {
			// i(t+dt) = geq*v(t+dt) + hist, hist = i(t) + geq*v(t).
			gv := g[e] * (x[a[e]] - x[b[e]])
			hist[e] = (gv + hist[e]) + gv
		}
	}
	// The gather walks the entries flat, accumulating into the cleared
	// rows in place: the entries are grouped by row in walk order, so
	// each row sees +0 then its own contributions in order, as a
	// register accumulator would, without a per-row loop.
	src, col, coef, row := t.src, t.gCol, t.gCoef[:len(t.gCol)], t.gRow[:len(t.gCol)]
	rhs := x[:t.n]
	clear(rhs)
	for k, s := range col {
		rhs[row[k]] -= coef[k] * src[s]
	}
	if t.lu.solveInPlace(rhs) {
		return 0
	}
	return -1
}

// laneBlock is the set of lane-block shapes: an array pointer for each
// register-blocked width, a slice for the rest.
type laneBlock interface {
	*[NarrowBatchLanes]float64 | *[DefaultBatchLanes]float64 | *[WideBatchLanes]float64 | []float64
}

// stepBlocks is the step at widths other than 1: stepScalar's passes
// with every scalar replaced by a block of lane values. P is the block
// shape: a fixed-size array pointer at the register-blocked widths,
// whose passes run in the AVX2 kernels when useSolveAVX2 is set, or a
// slice for every other width. It returns -1, or the highest lane that
// diverged.
func stepBlocks[P laneBlock](t *BatchTransient, next float64) int {
	var zero P
	B := len(zero)
	vec := useSolveAVX2 && B != 0
	if B == 0 {
		B = t.lanes
	}
	x, hist := t.x, t.hist
	t.loadCurrents(next)
	switch {
	case t.step == 0:
	case vec:
		historyAVX2(B, t.histA, t.histB, t.histG, x, hist, t.caps)
	default:
		for e, g := range t.histG[:t.caps] {
			pa, pb, h := blk[P](x, int(t.histA[e]), B), blk[P](x, int(t.histB[e]), B), blk[P](hist, e, B)
			for l := 0; l < B; l++ {
				gv := g * (pa[l] - pb[l])
				h[l] = gv + (gv - h[l])
			}
		}
		for e := t.caps; e < len(t.histG); e++ {
			g := t.histG[e]
			pa, pb, h := blk[P](x, int(t.histA[e]), B), blk[P](x, int(t.histB[e]), B), blk[P](hist, e, B)
			for l := 0; l < B; l++ {
				gv := g * (pa[l] - pb[l])
				h[l] = (gv + h[l]) + gv
			}
		}
	}
	if vec {
		gatherAVX2(B, t.gCoef, t.gCol, t.gPtr, t.src, x, t.n)
	} else { // stepScalar's flat gather, lane blocks for scalars
		src, col, coef, row := t.src, t.gCol, t.gCoef[:len(t.gCol)], t.gRow[:len(t.gCol)]
		clear(x[:t.n*B])
		for k, sk := range col {
			c, xr, s := coef[k], blk[P](x, int(row[k]), B), blk[P](src, int(sk), B)
			for l := 0; l < B; l++ {
				xr[l] -= c * s[l]
			}
		}
	}
	return t.lu.solveBatchInPlace(x[:t.n*B], B)
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

// historyAVX2 runs the history pass of register-blocked width B in its
// AVX2 kernel.
func historyAVX2(B int, a, b []int32, geq, x, hist []float64, caps int) {
	switch B {
	case NarrowBatchLanes:
		history4AVX2(a, b, geq, x, hist, caps)
	case DefaultBatchLanes:
		history8AVX2(a, b, geq, x, hist, caps)
	case WideBatchLanes:
		history16AVX2(a, b, geq, x, hist, caps)
	}
}

// gatherAVX2 runs the gather of register-blocked width B in its AVX2
// kernel.
func gatherAVX2(B int, coef []float64, col, ptr []int32, src, x []float64, n int) {
	switch B {
	case NarrowBatchLanes:
		gather4AVX2(coef, col, ptr, src, x, n)
	case DefaultBatchLanes:
		gather8AVX2(coef, col, ptr, src, x, n)
	case WideBatchLanes:
		gather16AVX2(coef, col, ptr, src, x, n)
	}
}
