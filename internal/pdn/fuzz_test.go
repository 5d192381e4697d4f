package pdn

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzSolveBatchInPlace hammers the in-place permuted-RHS substitution
// kernels — single-lane, the width-4, width-8 and width-16 register
// blocks (both the vector and pure-Go bodies), and the generic walk —
// with random sparse diagonally-dominant systems and random right-hand
// sides, and requires every path to reproduce the element-wise
// reference walk bit for bit. The matrix sparsity pattern, values, and
// lane data all derive from the fuzzed bytes, so the corpus explores
// pivoting permutations, empty substitution rows, and denormal-scale
// values the unit tests' fixed seeds never reach. Fuzzed bytes of 0xf0
// and above also plant NaN or ±Inf right-hand-side values, and every
// path must report the same diverged lane as a scan of the reference
// solution: the highest lane holding a non-finite value.
func FuzzSolveBatchInPlace(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), []byte{0x10, 0x80, 0xf0})
	f.Add(int64(42), uint8(23), uint8(8), []byte{0x00, 0xff, 0x7f, 0x3c})
	f.Add(int64(7), uint8(9), uint8(16), []byte{0xaa, 0x55})
	f.Add(int64(99), uint8(2), uint8(1), []byte{0x01})
	f.Add(int64(13), uint8(17), uint8(5), []byte{0xde, 0xad, 0xbe, 0xef, 0x42})
	f.Add(int64(5), uint8(11), uint8(15), []byte{0x9a, 0xf3, 0x20, 0xf6, 0xc4})
	f.Add(int64(8), uint8(6), uint8(3), []byte{0xf1})
	savedVec := useSolveAVX2
	defer func() { useSolveAVX2 = savedVec }()
	f.Fuzz(func(t *testing.T, seed int64, nRaw, lanesRaw uint8, data []byte) {
		n := 2 + int(nRaw)%24
		lanes := 1 + int(lanesRaw)%16
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				// Sparsity and magnitude steered by the fuzzed bytes.
				b := byte(0x80)
				if len(data) > 0 {
					b = data[(i*n+j)%len(data)]
				}
				if i != j && b < 0x99 {
					continue
				}
				a[i*n+j] = rng.NormFloat64() * math.Ldexp(1, int(b%16)-8)
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Skip() // singular by construction: nothing to solve
		}
		b := make([]float64, n*lanes)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		for i, d := range data {
			if d >= 0xf0 {
				b[(i*131+int(d))%len(b)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[d%3]
			}
		}
		want := make([]float64, n*lanes)
		lu.solveBatchIntoElementwise(want, b, lanes)
		wantBad := -1
		for i, v := range want {
			if l := i % lanes; v-v != 0 && l > wantBad {
				wantBad = l
			}
		}
		modes := []bool{false}
		if savedVec {
			modes = append(modes, true)
		}
		for _, vec := range modes {
			useSolveAVX2 = vec
			x := permuteRHS(lu, b, lanes)
			bad := lu.solveBatchInPlace(x, lanes)
			for i := range x {
				if !sameFloat(x[i], want[i]) {
					t.Fatalf("vec=%v n=%d lanes=%d: slot %d = %x, want %x",
						vec, n, lanes, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
			if bad != wantBad {
				t.Fatalf("vec=%v n=%d lanes=%d: diverged lane %d, want %d", vec, n, lanes, bad, wantBad)
			}
		}
		useSolveAVX2 = savedVec
		// Single-lane in-place path against its own reference.
		wantS := make([]float64, n)
		lu.solveIntoElementwise(wantS, b[:n])
		xs := permuteRHS(lu, b[:n], 1)
		diverged := lu.solveInPlace(xs)
		wantDiverged := false
		for i := range xs {
			if !sameFloat(xs[i], wantS[i]) {
				t.Fatalf("solveInPlace: slot %d = %x, want %x",
					i, math.Float64bits(xs[i]), math.Float64bits(wantS[i]))
			}
			wantDiverged = wantDiverged || wantS[i]-wantS[i] != 0
		}
		if diverged != wantDiverged {
			t.Fatalf("solveInPlace: diverged %v, want %v", diverged, wantDiverged)
		}
	})
}

// sameFloat reports whether a and b have the same bits, or are both
// NaN: a NaN's payload is not part of the solve contract.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}
