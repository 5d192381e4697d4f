package pdn

import (
	"fmt"
	"math"

	"voltnoise/internal/signal"
)

// Transient is the width-1 view of BatchTransient: one lane whose
// fixed supplies follow the circuit, for callers that step a single
// trajectory. It holds no engine state of its own.
type Transient struct {
	bt *BatchTransient
}

// NewTransient prepares a transient simulation of c with fixed timestep
// dt, starting at time zero. See NewTransientAt.
func NewTransient(c *Circuit, dt float64) (*Transient, error) {
	return NewTransientAt(c, dt, 0)
}

// NewTransientAt prepares a transient simulation of c with fixed
// timestep dt, starting at simulation time start from the circuit's
// DC operating point (see NewBatchTransientAt).
func NewTransientAt(c *Circuit, dt, start float64) (*Transient, error) {
	bt, err := NewBatchTransientAt(c, dt, start, 1, nil)
	if err != nil {
		return nil, err
	}
	return &Transient{bt: bt}, nil
}

// Reset rewinds the simulation to the given start time and re-derives
// the DC operating point from the circuit's current loads and fixed
// potentials, so a Circuit.FixNode retune takes effect here. Neither
// nodal matrix is re-stamped or re-factored.
func (t *Transient) Reset(start float64) error {
	t.bt.seedFixed()
	return t.bt.Reset(start)
}

// Step advances the simulation by one timestep. It allocates nothing.
func (t *Transient) Step() error { return t.bt.Step() }

// RunUntil advances the simulation until the given absolute time
// without recording anything. Useful for warm-up.
func (t *Transient) RunUntil(until float64) error { return t.bt.RunUntil(until) }

// Time returns the current simulation time in seconds.
func (t *Transient) Time() float64 { return t.bt.time }

// Dt returns the fixed timestep.
func (t *Transient) Dt() float64 { return t.bt.dt }

// Voltage returns the potential of node n at the current time.
func (t *Transient) Voltage(n NodeID) float64 { return t.bt.Voltage(0, n) }

// BranchCurrent returns the current (a -> b) through element i in
// insertion order (see BatchTransient.BranchCurrent).
func (t *Transient) BranchCurrent(i int) float64 { return t.bt.BranchCurrent(0, i) }

// Run advances the simulation for the given duration, recording the
// potential of each probe node every step. The returned traces are
// indexed like probes and start at the pre-run simulation time.
func (t *Transient) Run(duration float64, probes []NodeID) ([]*signal.Trace, error) {
	if duration < 0 {
		return nil, fmt.Errorf("pdn: negative run duration %g", duration)
	}
	steps := int(math.Round(duration / t.Dt()))
	traces := make([]*signal.Trace, len(probes))
	for i, p := range probes {
		tr := signal.NewTrace(t.Dt(), steps+1)
		tr.Start = t.Time()
		tr.Samples[0] = t.Voltage(p)
		traces[i] = tr
	}
	for s := 1; s <= steps; s++ {
		if err := t.Step(); err != nil {
			return nil, err
		}
		for i, p := range probes {
			traces[i].Samples[s] = t.Voltage(p)
		}
	}
	return traces, nil
}

// stampCompanion computes the trapezoidal companion conductance of
// every element and folds the set into a freshly factored nodal
// matrix. The matrix depends only on element values and the timestep,
// so it is factored once per engine and shared by every lane.
func stampCompanion(c *Circuit, dt float64, idx []int, n int) (geq []float64, lu *realLU, err error) {
	geq = make([]float64, len(c.elements))
	g := make([]float64, n*n)
	for ei, e := range c.elements {
		var ge float64
		switch e.kind {
		case kindResistor:
			ge = 1 / e.value
		case kindCapacitor:
			ge = 2 * e.value / dt
		case kindInductor:
			ge = dt / (2 * e.value)
		}
		geq[ei] = ge
		stampReal(g, n, idx, e.a, e.b, ge)
	}
	lu, err = factorReal(g, n)
	if err != nil {
		return nil, nil, fmt.Errorf("pdn: transient setup: %w", err)
	}
	return geq, lu, nil
}

// stampReal adds conductance ge between nodes a and b into the nodal
// matrix of unknowns (rows/cols indexed by idx).
func stampReal(g []float64, n int, idx []int, a, b NodeID, ge float64) {
	ia, ib := idx[a], idx[b]
	if ia >= 0 {
		g[ia*n+ia] += ge
	}
	if ib >= 0 {
		g[ib*n+ib] += ge
	}
	if ia >= 0 && ib >= 0 {
		g[ia*n+ib] -= ge
		g[ib*n+ia] -= ge
	}
}

// dcShortOhms is the tiny resistance standing in for an inductor in
// the DC operating-point solve.
const dcShortOhms = 1e-9

// dcConductance returns the element's conductance in the DC
// operating-point solve (capacitors are open and report ok=false).
func dcConductance(e element) (ge float64, ok bool) {
	switch e.kind {
	case kindResistor:
		return 1 / e.value, true
	case kindInductor:
		return 1 / dcShortOhms, true
	}
	return 0, false
}

// factorDCMatrix stamps and factors the DC operating-point matrix:
// inductors become tiny resistances, capacitors are open. The matrix
// depends only on element values, so it is factored once and reused by
// every initState, across runs and fixed-supply retunes alike.
func factorDCMatrix(c *Circuit, idx []int, n int) (*realLU, error) {
	g := make([]float64, n*n)
	for _, e := range c.elements {
		ge, ok := dcConductance(e)
		if !ok {
			continue
		}
		stampReal(g, n, idx, e.a, e.b, ge)
	}
	lu, err := factorReal(g, n)
	if err != nil {
		return nil, fmt.Errorf("pdn: DC operating point: %w (is every node connected to a source?)", err)
	}
	return lu, nil
}
