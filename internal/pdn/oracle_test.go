package pdn

import "fmt"

// The element-wise substitution walks below are the reference oracles
// for the solve kernels: they visit each stored nonzero through its
// column index, the plainest form of the sparse substitution, so every
// blocked, register-blocked, vector and in-place walk is checked
// against them bit for bit.

// solveBatchIntoElementwise solves A*X = B for `lanes` right-hand sides
// laid out lane-innermost (row i, lane l at i*lanes+l), writing the
// solution block into x.
func (f *realLU) solveBatchIntoElementwise(x, b []float64, lanes int) {
	n := f.n
	if lanes < 1 || len(b) != n*lanes || len(x) != n*lanes {
		panic(fmt.Sprintf("pdn: solveBatchIntoElementwise with len(x)=%d len(b)=%d n=%d lanes=%d", len(x), len(b), n, lanes))
	}
	for i := 0; i < n; i++ {
		copy(x[i*lanes:i*lanes+lanes], b[f.perm[i]*lanes:f.perm[i]*lanes+lanes])
	}
	for i := 1; i < n; i++ {
		xi := x[i*lanes : i*lanes+lanes]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			v := f.lVal[k]
			j := int(f.lCol[k])
			xj := x[j*lanes : j*lanes+lanes : j*lanes+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x[i*lanes : i*lanes+lanes]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			v := f.uVal[k]
			j := int(f.uCol[k])
			xj := x[j*lanes : j*lanes+lanes : j*lanes+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
		d := f.invDiag[i]
		for l := range xi {
			xi[l] *= d
		}
	}
}

// solveIntoElementwise solves A*x = b for one right-hand side, writing
// the solution into x.
func (f *realLU) solveIntoElementwise(x, b []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("pdn: solveIntoElementwise with len(x)=%d len(b)=%d n=%d", len(x), len(b), n))
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		sum := x[i]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			sum -= f.lVal[k] * x[f.lCol[k]]
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			sum -= f.uVal[k] * x[f.uCol[k]]
		}
		x[i] = sum * f.invDiag[i]
	}
}
