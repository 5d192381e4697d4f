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

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
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

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmat: Mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	if m.cols != len(x) {
		panic(fmt.Sprintf("cmat: MulVec dimension mismatch %dx%d * %d", m.rows, m.cols, len(x)))
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		sum := complex(0, 0)
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			sum += a * x[j]
		}
		out[i] = sum
	}
	return out
}

// LU holds an LU factorization with partial pivoting of a square
// matrix: P*A = L*U with unit-diagonal L stored below the diagonal of
// lu and U on and above it.
type LU struct {
	lu   *Matrix
	perm []int
	sign int
}

// Factor computes the LU factorization of square matrix a, leaving a
// unchanged. It returns an error when the matrix is singular to
// working precision.
func Factor(a *Matrix) (*LU, error) {
	f := new(LU)
	if err := f.FactorInPlace(a.Clone()); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorInPlace is Factor without the copies: the factors overwrite
// square matrix a, which f then holds, and f's permutation buffer is
// reused when it fits. A caller that restamps one matrix per solve
// keeps one LU and factors into it without allocating. On error f
// holds no usable factorization.
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
	sign := 1
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
			sign = -sign
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
	f.lu, f.sign = lu, sign
	return nil
}

// Solve returns x such that A*x = b for the factored matrix.
func (f *LU) Solve(b []complex128) []complex128 {
	x := make([]complex128, f.lu.rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto is Solve writing into x, which must have the system's
// length and must not share memory with b.
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

// Determinant returns det(A) from the factorization.
func (f *LU) Determinant() complex128 {
	n := f.lu.rows
	det := complex(float64(f.sign), 0)
	for i := 0; i < n; i++ {
		det *= f.lu.data[i*n+i]
	}
	return det
}

// Solve is a convenience wrapper: factor a and solve a*x = b.
func Solve(a *Matrix, b []complex128) ([]complex128, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
