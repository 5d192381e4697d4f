package pdn

// useSolveAVX2 selects the hand-written AVX2 kernels for the width-4,
// width-8 and width-16 batch steps: the history pass, the gather and
// the in-place substitutions. The vector kernels perform the identical
// IEEE-754 operations in the identical per-lane order as the Go walks
// (vectorization spans independent lanes, never reassociates within
// one; no FMA contraction), so enabling them cannot change a result
// bit — the equivalence tests run both paths and compare bytes. It is
// a variable, not a constant, so tests can force the Go fallback.
var useSolveAVX2 = detectAVX2()

// detectAVX2 reports whether the host supports AVX2 and the OS has
// enabled YMM state (OSXSAVE + XCR0[2:1] == 11b), following the
// standard CPUID/XGETBV probe sequence.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0 // AVX2
}

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)

// fwdBack8AVX2 runs the forward and back substitutions of
// solveBatch8InPlace over the 8-lane block x (row i at x[i*8:i*8+8])
// with AVX2 vectors: per nonzero, the coefficient broadcasts across a
// lane vector and each row's two 4-lane vectors accumulate the same
// multiply-then-subtract the scalar walk performs, rows in the same
// order, reciprocal scaling last. Every row the back pass finishes is
// checked for divergence; bit l of the result is set when lane l holds
// a non-finite value. All slices must be the factor's own (lengths are
// not re-checked here). The three kernels share one assembly body
// (FWD_BACK in solve_amd64.s); only the row shape differs.
//
//go:noescape
func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)

// fwdBack4AVX2 is fwdBack8AVX2 for 4-lane blocks (one 4-lane vector
// per row), the body of solveBatch4InPlace.
//
//go:noescape
func fwdBack4AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)

// fwdBack16AVX2 is fwdBack8AVX2 for 16-lane blocks (four 4-lane
// vectors per row), the body of solveBatch16InPlace.
//
//go:noescape
func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) (diverged uint64)

// history4AVX2, history8AVX2 and history16AVX2 are the history pass of
// stepBlocks at their widths: reactive element e updates hist row e
// from the x rows a[e] and b[e] with conductance geq[e], as a
// capacitor for e < caps and as an inductor after (HISTORY in
// solve_amd64.s).
//
//go:noescape
func history4AVX2(a, b []int32, geq, x, hist []float64, caps int)

//go:noescape
func history8AVX2(a, b []int32, geq, x, hist []float64, caps int)

//go:noescape
func history16AVX2(a, b []int32, geq, x, hist []float64, caps int)

// gather4AVX2, gather8AVX2 and gather16AVX2 are the gather of
// stepBlocks at their widths: rows 0..n-1 of x from the src rows and
// signs of the CSR lists ptr/col/coef (GATHER in solve_amd64.s).
//
//go:noescape
func gather4AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)

//go:noescape
func gather8AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)

//go:noescape
func gather16AVX2(coef []float64, col, ptr []int32, src, x []float64, n int)
