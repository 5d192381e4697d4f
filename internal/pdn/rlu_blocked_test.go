package pdn

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below keep the names they had when the factor carried a
// second, run-grouped ("blocked") plan for the DC solve and the generic
// widths. That plan is gone; the tests now pin the walks that replaced
// it to the element-wise oracle.

// TestBlockedSolveMatchesElementwiseZEC12: on the production zEC12
// factor, the DC solve and the in-place multi-RHS solves are
// byte-identical to the element-wise walks.
func TestBlockedSolveMatchesElementwiseZEC12(t *testing.T) {
	lu := zec12LU(t)
	rng := rand.New(rand.NewSource(42))
	n := lu.n
	for trial := 0; trial < 10; trial++ {
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		lu.solveInto(got, b)
		lu.solveIntoElementwise(want, b)
		byteIdentical(t, "solveInto", got, want)
	}
	for _, lanes := range []int{1, 3, 8} {
		b := make([]float64, n*lanes)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n*lanes)
		lu.solveBatchIntoElementwise(want, b, lanes)
		got := permuteRHS(lu, b, lanes)
		lu.solveBatchInPlace(got, lanes)
		byteIdentical(t, "solveBatchInPlace", got, want)
	}
}

// TestBlockedSolveMatchesElementwiseRandom: randomized small circuits —
// random sparse diagonally-dominant matrices with scattered zero
// patterns — keep the DC solve and the in-place walks byte-identical to
// the element-wise walks, including patterns with no consecutive
// columns at all.
func TestBlockedSolveMatchesElementwiseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					continue // leave a zero: factors stay sparse
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1 // diagonally dominant: nonsingular
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n)
		want := make([]float64, n)
		lu.solveInto(got, b)
		lu.solveIntoElementwise(want, b)
		byteIdentical(t, "solveInto", got, want)
		lanes := 1 + rng.Intn(8)
		bb := make([]float64, n*lanes)
		for i := range bb {
			bb[i] = rng.NormFloat64()
		}
		wantB := make([]float64, n*lanes)
		lu.solveBatchIntoElementwise(wantB, bb, lanes)
		gotB := permuteRHS(lu, bb, lanes)
		lu.solveBatchInPlace(gotB, lanes)
		byteIdentical(t, "solveBatchInPlace", gotB, wantB)
	}
}

// TestBlockedStepAllocs: the width-1 engine's step on zEC12, with a
// time-varying core load, stays at zero allocations.
func TestBlockedStepAllocs(t *testing.T) {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	ckt.AddLoad("core", nodes.Core[0], func(tm float64) float64 { return 20 + 10*math.Sin(tm*1e7) })
	tr, err := NewBatchTransientAt(ckt, 2e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Step allocates %g times per run", allocs)
	}
}
