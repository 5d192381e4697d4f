package cmat

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// fromRows stamps a square matrix row by row through Add.
func fromRows(vals [][]complex128) *Matrix {
	a := New(len(vals), len(vals))
	for i, row := range vals {
		for j, v := range row {
			a.Add(i, j, v)
		}
	}
	return a
}

// solve factors a copy of a and solves a*x = b, the phasor solver's
// FactorInPlace + SolveInto sequence.
func solve(a *Matrix, b []complex128) ([]complex128, error) {
	work := New(a.rows, a.cols)
	copy(work.data, a.data)
	var f LU
	if err := f.FactorInPlace(work); err != nil {
		return nil, err
	}
	x := make([]complex128, len(b))
	f.SolveInto(x, b)
	return x, nil
}

// residual returns max_i |(a*x - b)_i|.
func residual(a *Matrix, x, b []complex128) float64 {
	worst := 0.0
	for i := 0; i < a.rows; i++ {
		r := -b[i]
		for j := 0; j < a.cols; j++ {
			r += a.data[i*a.cols+j] * x[j]
		}
		worst = math.Max(worst, cmplx.Abs(r))
	}
	return worst
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestAddAccumulates(t *testing.T) {
	m := New(2, 3)
	m.Add(1, 2, 3+4i)
	m.Add(1, 2, 1-1i)
	if got := m.data[1*3+2]; got != 4+3i {
		t.Errorf("(1,2) after two Adds = %v, want 4+3i", got)
	}
	m.Zero()
	for i, v := range m.data {
		if v != 0 {
			t.Errorf("element %d = %v after Zero", i, v)
		}
	}
}

func TestBoundsPanic(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Add(2, 0, 1)
}

func TestSolveKnownSystem(t *testing.T) {
	// [2 1; 1 3] x = [5; 10] -> x = [1; 3]
	x, err := solve(fromRows([][]complex128{{2, 1}, {1, 3}}), []complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	a := fromRows([][]complex128{
		{2 + 1i, -1, 0},
		{-1, 3 - 2i, 1i},
		{0, 1i, 4},
	})
	b := []complex128{1, 2i, -3}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero diagonal forces a row swap.
	x, err := solve(fromRows([][]complex128{{0, 1}, {1, 0}}), []complex128{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-7) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSingularDetected(t *testing.T) {
	if _, err := solve(fromRows([][]complex128{{1, 2}, {2, 4}}), []complex128{1, 1}); err == nil {
		t.Error("expected singular error")
	}
}

func TestFactorNonSquare(t *testing.T) {
	var f LU
	if err := f.FactorInPlace(New(2, 3)); err == nil {
		t.Error("expected error for non-square factor")
	}
}

func TestSolveRHSLengthPanics(t *testing.T) {
	var f LU
	if err := f.FactorInPlace(fromRows([][]complex128{{1, 0}, {0, 1}})); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.SolveInto(make([]complex128, 2), []complex128{1})
}

// TestFactorInPlaceReuse checks one LU refactored over matrices of
// different sizes gives a fresh LU's answers bit for bit, and that a
// refactor-and-solve into held buffers allocates nothing.
func TestFactorInPlaceReuse(t *testing.T) {
	mats := []*Matrix{New(3, 3), New(2, 2), New(3, 3)}
	for k, a := range mats {
		n := a.rows
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, complex(float64((i*7+j*3+k)%5), float64(j-i)))
			}
			a.Add(i, i, complex(float64(10+k), 0))
		}
	}
	var f LU
	for k, a := range mats {
		b := make([]complex128, a.rows)
		for i := range b {
			b[i] = complex(float64(i+1), float64(k))
		}
		want, err := solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		work := New(a.rows, a.cols)
		copy(work.data, a.data)
		if err := f.FactorInPlace(work); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, len(b))
		f.SolveInto(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("matrix %d: x[%d] = %v, fresh LU gives %v", k, i, got[i], want[i])
			}
		}
		if r := residual(a, got, b); r > 1e-10 {
			t.Errorf("matrix %d: residual %g", k, r)
		}
	}
	a, work := mats[0], New(3, 3)
	b, x := []complex128{1, 2, 3}, make([]complex128, 3)
	if allocs := testing.AllocsPerRun(20, func() {
		copy(work.data, a.data)
		if err := f.FactorInPlace(work); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(x, b)
	}); allocs != 0 {
		t.Errorf("FactorInPlace+SolveInto: %.0f allocs, want 0", allocs)
	}
	if err := f.FactorInPlace(New(2, 2)); err == nil {
		t.Error("FactorInPlace of a zero matrix: want a singular-matrix error")
	}
}

// Property: for random diagonally dominant matrices, the solve returns
// a vector whose residual is tiny.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seedRe, seedIm [16]int8, rhs [4]int8) bool {
		const n = 4
		a := New(n, n)
		k := 0
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				v := complex(float64(seedRe[k]), float64(seedIm[k]))
				k++
				if i != j {
					a.Add(i, j, v)
					rowSum += cmplx.Abs(v)
				}
			}
			// Diagonal dominance guarantees nonsingularity.
			a.Add(i, i, complex(rowSum+1, 1))
		}
		b := make([]complex128, n)
		worst := 0.0
		for i := range b {
			b[i] = complex(float64(rhs[i]), float64(-rhs[i]))
			worst = math.Max(worst, cmplx.Abs(b[i]))
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		return residual(a, x, b) <= 1e-8*(1+worst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolve16(b *testing.B) {
	const n = 16
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				a.Add(i, j, complex(float64(n), 1))
			} else {
				a.Add(i, j, complex(math.Sin(float64(i*n+j)), math.Cos(float64(i-j))))
			}
		}
	}
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = complex(float64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
