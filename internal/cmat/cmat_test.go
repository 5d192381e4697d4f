package cmat

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 3+4i)
	if got := m.At(1, 2); got != 3+4i {
		t.Errorf("At = %v", got)
	}
	m.Add(1, 2, 1-1i)
	if got := m.At(1, 2); got != 4+3i {
		t.Errorf("after Add = %v", got)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Errorf("dims = %dx%d", m.Rows(), m.Cols())
	}
}

func TestBoundsPanic(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestIdentityMul(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1+1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, -1i)
	a.Set(1, 1, 3)
	prod := a.Mul(Identity(2))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if prod.At(i, j) != a.At(i, j) {
				t.Errorf("A*I (%d,%d) = %v, want %v", i, j, prod.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestMulKnown(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	b := New(2, 1)
	b.Set(0, 0, 5)
	b.Set(1, 0, 6)
	c := a.Mul(b)
	if c.At(0, 0) != 17 || c.At(1, 0) != 39 {
		t.Errorf("Mul = [%v %v]", c.At(0, 0), c.At(1, 0))
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Mul(New(2, 2))
}

func TestMulVec(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, 0)
	a.Set(1, 1, 1)
	got := a.MulVec([]complex128{1, 1i})
	if got[0] != 1i+2i || got[1] != 1i {
		t.Errorf("MulVec = %v", got)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// [2 1; 1 3] x = [5; 10] -> x = [1; 3]
	a := New(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	// Verify A*x == b for a complex system.
	a := New(3, 3)
	vals := [][]complex128{
		{2 + 1i, -1, 0},
		{-1, 3 - 2i, 1i},
		{0, 1i, 4},
	}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	b := []complex128{1, 2i, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	back := a.MulVec(x)
	for i := range b {
		if cmplx.Abs(back[i]-b[i]) > 1e-10 {
			t.Errorf("residual[%d] = %v", i, back[i]-b[i])
		}
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero diagonal forces a row swap.
	a := New(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []complex128{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-7) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestSingularDetected(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Error("expected singular error")
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(New(2, 3)); err == nil {
		t.Error("expected error for non-square factor")
	}
}

func TestDeterminant(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, 4)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Determinant(); cmplx.Abs(d-(-2)) > 1e-12 {
		t.Errorf("det = %v, want -2", d)
	}
	// Identity determinant is 1 regardless of size.
	f2, _ := Factor(Identity(5))
	if d := f2.Determinant(); cmplx.Abs(d-1) > 1e-12 {
		t.Errorf("det(I) = %v", d)
	}
}

func TestSolveRHSLengthPanics(t *testing.T) {
	f, _ := Factor(Identity(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Solve([]complex128{1})
}

func TestCloneIndependent(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

// TestFactorInPlaceReuse checks one LU refactored over matrices of
// different sizes gives Factor's answers bit for bit, and that a
// refactor-and-solve into held buffers allocates nothing.
func TestFactorInPlaceReuse(t *testing.T) {
	mats := []*Matrix{New(3, 3), New(2, 2), New(3, 3)}
	for k, a := range mats {
		n := a.Rows()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(float64((i*7+j*3+k)%5), float64(j-i)))
			}
			a.Add(i, i, complex(float64(10+k), 0))
		}
	}
	var f LU
	for k, a := range mats {
		b := make([]complex128, a.Rows())
		for i := range b {
			b[i] = complex(float64(i+1), float64(k))
		}
		ref, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Solve(b)
		if err := f.FactorInPlace(a.Clone()); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, len(b))
		f.SolveInto(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("matrix %d: x[%d] = %v, Factor gives %v", k, i, got[i], want[i])
			}
		}
		if f.Determinant() != ref.Determinant() {
			t.Errorf("matrix %d: det %v, Factor gives %v", k, f.Determinant(), ref.Determinant())
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

// Property: for random diagonally dominant matrices, Solve returns a
// vector whose residual is tiny.
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
					a.Set(i, j, v)
					rowSum += cmplx.Abs(v)
				}
			}
			// Diagonal dominance guarantees nonsingularity.
			a.Set(i, i, complex(rowSum+1, 1))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(float64(rhs[i]), float64(-rhs[i]))
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		back := a.MulVec(x)
		for i := range b {
			if cmplx.Abs(back[i]-b[i]) > 1e-8*(1+cmplx.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: det(A) from LU matches the 2x2 closed form.
func TestDeterminant2x2Property(t *testing.T) {
	f := func(a0, a1, a2, a3 int8) bool {
		a := New(2, 2)
		va, vb, vc, vd := complex128(complex(float64(a0), 1)), complex128(complex(float64(a1), 0)),
			complex128(complex(float64(a2), 0)), complex128(complex(float64(a3), -1))
		a.Set(0, 0, va)
		a.Set(0, 1, vb)
		a.Set(1, 0, vc)
		a.Set(1, 1, vd)
		want := va*vd - vb*vc
		f2, err := Factor(a)
		if err != nil {
			// Singular matrices are out of scope for this property.
			return cmplx.Abs(want) < 1e-6
		}
		got := f2.Determinant()
		return cmplx.Abs(got-want) <= 1e-9*(1+cmplx.Abs(want))
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
				a.Set(i, j, complex(float64(n), 1))
			} else {
				a.Set(i, j, complex(math.Sin(float64(i*n+j)), math.Cos(float64(i-j))))
			}
		}
	}
	rhs := make([]complex128, n)
	for i := range rhs {
		rhs[i] = complex(float64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
