package pdn

import "fmt"

// NewTransientAt is the width-1 engine with the circuit's own loads:
// NewBatchTransientAt(c, dt, start, 1, nil). It is kept only for the
// per-layer replays of bench/layers.go; library code builds its
// engines with NewBatchTransientAt.
func NewTransientAt(c *Circuit, dt, start float64) (*BatchTransient, error) {
	return NewBatchTransientAt(c, dt, start, 1, nil)
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
