// Package cmat implements small dense complex linear algebra: matrices,
// LU factorization with partial pivoting, and linear solves. It exists
// to support phasor-domain (AC) analysis of power-distribution
// networks, where nodal admittance matrices are complex and typically
// have a few dozen rows, so a simple dense solver is both adequate and
// dependency-free.
package cmat

import (
	"fmt"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix.
type Matrix struct {
	rows, cols int
	data       []complex128
}

// New allocates a zero rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("cmat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// Add adds v to element (i, j). This is the natural operation when
// stamping circuit elements into a nodal matrix.
func (m *Matrix) Add(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmat: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}

// Zero sets every element to zero, so a matrix can be restamped
// without reallocating it.
func (m *Matrix) Zero() { clear(m.data) }

// LU holds an LU factorization with partial pivoting of a square
// matrix: P*A = L*U with unit-diagonal L stored below the diagonal of
// lu and U on and above it.
type LU struct {
	lu   *Matrix
	perm []int
}

// FactorInPlace computes the LU factorization of square matrix a. The
// factors overwrite a, which f then holds, and f's permutation buffer is
// reused when it fits. A caller that restamps one matrix per solve
// keeps one LU and factors into it without allocating. It returns an
// error when the matrix is singular to working precision; f then holds
// no usable factorization.
func (f *LU) FactorInPlace(a *Matrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("cmat: Factor of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	if cap(f.perm) < n {
		f.perm = make([]int, n)
	}
	perm := f.perm[:n]
	for i := range perm {
		perm[i] = i
	}
	f.lu, f.perm = nil, perm
	lu := a
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in the column at/below the diagonal.
		pivot := col
		maxMag := cmplx.Abs(lu.data[col*n+col])
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(lu.data[r*n+col]); mag > maxMag {
				maxMag = mag
				pivot = r
			}
		}
		if maxMag < 1e-300 {
			return fmt.Errorf("cmat: singular matrix (pivot %d)", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu.data[col*n+j], lu.data[pivot*n+j] = lu.data[pivot*n+j], lu.data[col*n+j]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu.data[col*n+col]
		for r := col + 1; r < n; r++ {
			m := lu.data[r*n+col] * inv
			lu.data[r*n+col] = m
			if m == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.data[r*n+j] -= m * lu.data[col*n+j]
			}
		}
	}
	f.lu = lu
	return nil
}

// SolveInto writes into x the solution of A*x = b for the factored
// matrix. x must have the system's length and must not share memory
// with b.
func (f *LU) SolveInto(x, b []complex128) {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("cmat: Solve rhs length %d, solution length %d for %dx%d system", len(b), len(x), n, n))
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		sum := x[i]
		for j := 0; j < i; j++ {
			sum -= f.lu.data[i*n+j] * x[j]
		}
		x[i] = sum
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for j := i + 1; j < n; j++ {
			sum -= f.lu.data[i*n+j] * x[j]
		}
		x[i] = sum / f.lu.data[i*n+i]
	}
}
