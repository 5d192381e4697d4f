package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zec12LU factors the calibrated zEC12 companion matrix — the factor
// every transient step solves against in production.
func zec12LU(t testing.TB) *realLU {
	t.Helper()
	ckt, _ := ZEC12(DefaultZEC12Config())
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	return tr.bt.lu
}

// checkRunPlan verifies the blocked run plan re-expands to exactly the
// element-wise nonzero pattern: same columns, same order, maximal
// consecutive runs.
func checkRunPlan(t *testing.T, cols, ptr, runCol, runLen, runPtr []int32, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var expand []int32
		for r := runPtr[i]; r < runPtr[i+1]; r++ {
			if runLen[r] < 1 {
				t.Fatalf("row %d: run %d has length %d", i, r, runLen[r])
			}
			for k := int32(0); k < runLen[r]; k++ {
				expand = append(expand, runCol[r]+k)
			}
			// Maximality: adjacent runs cannot be merged.
			if r+1 < runPtr[i+1] && runCol[r+1] == runCol[r]+runLen[r] {
				t.Fatalf("row %d: runs %d and %d are mergeable", i, r, r+1)
			}
		}
		row := cols[ptr[i]:ptr[i+1]]
		if len(expand) != len(row) {
			t.Fatalf("row %d: plan expands to %d columns, want %d", i, len(expand), len(row))
		}
		for k := range row {
			if expand[k] != row[k] {
				t.Fatalf("row %d: plan column %d = %d, want %d", i, k, expand[k], row[k])
			}
		}
	}
}

// TestBlockedPlanZEC12: the run plan of the production factor covers
// the element-wise pattern exactly, and the triangles really are worth
// blocking (every nonzero sits in a run, runs ≪ nonzeros).
func TestBlockedPlanZEC12(t *testing.T) {
	lu := zec12LU(t)
	checkRunPlan(t, lu.lCol, lu.lPtr, lu.lRunCol, lu.lRunLen, lu.lRunPtr, lu.n)
	checkRunPlan(t, lu.uCol, lu.uPtr, lu.uRunCol, lu.uRunLen, lu.uRunPtr, lu.n)
	nz := len(lu.lVal) + len(lu.uVal)
	runs := len(lu.lRunCol) + len(lu.uRunCol)
	if runs >= nz {
		t.Errorf("blocking buys nothing on zEC12: %d runs for %d nonzeros", runs, nz)
	}
	t.Logf("zEC12 factor: %d nonzeros in %d runs (n=%d)", nz, runs, lu.n)
}

// byteIdentical fails unless a and b match bit for bit (NaNs included).
func byteIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBlockedSolveMatchesElementwiseZEC12: on the production zEC12
// factor, the blocked DC solve and the in-place multi-RHS solves are
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
// patterns — keep the two walks byte-identical, including patterns
// with no consecutive columns at all.
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
		checkRunPlan(t, lu.lCol, lu.lPtr, lu.lRunCol, lu.lRunLen, lu.lRunPtr, n)
		checkRunPlan(t, lu.uCol, lu.uPtr, lu.uRunCol, lu.uRunLen, lu.uRunPtr, n)
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

// TestBlockedStepAllocs: the blocked walk keeps the transient step at
// zero allocations, like the element-wise walk before it.
func TestBlockedStepAllocs(t *testing.T) {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	ckt.AddLoad("core", nodes.Core[0], func(tm float64) float64 { return 20 + 10*math.Sin(tm*1e7) })
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("blocked Step allocates %g times per run", allocs)
	}
}

// BenchmarkBlockedStep measures the per-step cost of the width-1
// engine on the calibrated zEC12 network (compare BenchmarkBatchStep
// for the wider lane shapes).
func BenchmarkBlockedStep(b *testing.B) {
	ckt, nodes := ZEC12(DefaultZEC12Config())
	ckt.AddLoad("core", nodes.Core[0], func(tm float64) float64 { return 20 + 10*math.Sin(tm*1e7) })
	tr, err := NewTransient(ckt, 2e-9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockedSolve pits the blocked DC solve and the in-place
// multi-RHS solves (the run plan at width 3, the register-blocked
// kernel at width 8) against the element-wise walks, on the production
// factor.
func BenchmarkBlockedSolve(b *testing.B) {
	lu := zec12LU(b)
	n := lu.n
	rng := rand.New(rand.NewSource(1))
	rhs := make([]float64, n*8)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, n*8)
	b.Run("Blocked1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solveInto(x[:n], rhs[:n])
		}
	})
	b.Run("Elementwise1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solveIntoElementwise(x[:n], rhs[:n])
		}
	})
	for _, lanes := range []int{3, 8} {
		b.Run(fmt.Sprintf("InPlace%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lu.solveBatchInPlace(x[:n*lanes], lanes)
			}
		})
		b.Run(fmt.Sprintf("Elementwise%d", lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lu.solveBatchIntoElementwise(x[:n*lanes], rhs[:n*lanes], lanes)
			}
		})
	}
}
