package pdn

import (
	"fmt"
	"math"
)

// realLU is a real LU factorization with partial pivoting, used by the
// transient engine where the (constant) conductance matrix is factored
// once and solved against a new right-hand side every step.
//
// PDN conductance matrices are mostly tree-structured, so the LU
// factors stay sparse (the zEC12 netlist factors to ~70% zeros).
// Alongside the dense factor the nonzero pattern of each row is
// recorded once, and the substitutions walk only the stored nonzeros.
// Skipping an exactly-zero coefficient never changes a solution value
// (x - 0*xj == x), so the sparse walk is bit-identical to the dense
// one — and every solve path shares the same pattern, so each lane
// performs identical arithmetic at every lane width.
type realLU struct {
	n    int
	lu   []float64
	perm []int
	// invPerm is perm's inverse: invPerm[perm[i]] == i. The in-place
	// solve paths have their callers assemble the right-hand side
	// directly in permuted row order (a contribution to unknown u lands
	// at slot invPerm[u]), which removes the per-solve gather pass —
	// an addressing change only, so solutions stay bit-identical.
	invPerm []int

	// Sparse substitution pattern: row r's L nonzeros (columns < r)
	// sit at lVal/lCol[lPtr[r]:lPtr[r+1]], its U nonzeros (columns
	// > r) at uVal/uCol[uPtr[r]:uPtr[r+1]], columns ascending — the
	// same order the dense loops visit them in. diag is the U
	// diagonal.
	lVal, uVal []float64
	lCol, uCol []int32
	lPtr, uPtr []int32
	diag       []float64
	// invDiag is 1/diag, computed once at factorization time: the
	// substitutions scale each row by multiplying with the reciprocal
	// instead of dividing, trading one division per row per solve for
	// one per row per factorization. Every solve path (blocked,
	// element-wise, single- and multi-RHS) uses the same reciprocal, so
	// they all remain byte-identical to one another.
	invDiag []float64

	// Blocked (supernodal-style) substitution plan: each row's nonzeros
	// are grouped into maximal runs of consecutive columns, recorded in
	// elimination order. Row r's L runs sit at lRunPtr[r]:lRunPtr[r+1];
	// run q starts at column lRunCol[q] and spans lRunLen[q] columns
	// whose values are the next lRunLen[q] entries of lVal. Walking runs
	// instead of single entries turns the inner substitution loops into
	// contiguous streams (no per-element column indirection) while
	// performing exactly the same multiplies and subtractions in the
	// same order, so the blocked walk is bit-identical to the
	// element-wise one. The tree-structured PDN matrices factor into
	// long consecutive bands, which is what makes the runs worthwhile.
	lRunCol, uRunCol []int32
	lRunLen, uRunLen []int32
	lRunPtr, uRunPtr []int32
}

// factorReal factors the n x n row-major matrix a. a is not modified.
func factorReal(a []float64, n int) (*realLU, error) {
	if len(a) != n*n {
		panic(fmt.Sprintf("pdn: factorReal matrix length %d for n=%d", len(a), n))
	}
	lu := make([]float64, n*n)
	copy(lu, a)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot := col
		maxMag := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if mag := math.Abs(lu[r*n+col]); mag > maxMag {
				maxMag = mag
				pivot = r
			}
		}
		if maxMag < 1e-300 {
			return nil, fmt.Errorf("pdn: singular conductance matrix (pivot %d)", col)
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				lu[col*n+j], lu[pivot*n+j] = lu[pivot*n+j], lu[col*n+j]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] * inv
			lu[r*n+col] = f
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu[r*n+j] -= f * lu[col*n+j]
			}
		}
	}
	f := &realLU{n: n, lu: lu, perm: perm}
	f.indexNonzeros()
	return f, nil
}

// indexNonzeros records the nonzero pattern of the factored L and U
// triangles for the sparse substitutions.
func (f *realLU) indexNonzeros() {
	n := f.n
	f.invPerm = make([]int, n)
	for i, p := range f.perm {
		f.invPerm[p] = i
	}
	f.lPtr = make([]int32, n+1)
	f.uPtr = make([]int32, n+1)
	f.diag = make([]float64, n)
	f.invDiag = make([]float64, n)
	for i := 0; i < n; i++ {
		f.diag[i] = f.lu[i*n+i]
		f.invDiag[i] = 1 / f.diag[i]
		for j := 0; j < i; j++ {
			if v := f.lu[i*n+j]; v != 0 {
				f.lVal = append(f.lVal, v)
				f.lCol = append(f.lCol, int32(j))
			}
		}
		f.lPtr[i+1] = int32(len(f.lVal))
		for j := i + 1; j < n; j++ {
			if v := f.lu[i*n+j]; v != 0 {
				f.uVal = append(f.uVal, v)
				f.uCol = append(f.uCol, int32(j))
			}
		}
		f.uPtr[i+1] = int32(len(f.uVal))
	}
	f.lRunCol, f.lRunLen, f.lRunPtr = indexRuns(f.lCol, f.lPtr, n)
	f.uRunCol, f.uRunLen, f.uRunPtr = indexRuns(f.uCol, f.uPtr, n)
}

// indexRuns groups each row's ascending nonzero columns into maximal
// runs of consecutive columns, preserving order — the blocked
// substitution plan.
func indexRuns(cols []int32, ptr []int32, n int) (runCol, runLen, runPtr []int32) {
	runPtr = make([]int32, n+1)
	for i := 0; i < n; i++ {
		k := ptr[i]
		for k < ptr[i+1] {
			c0 := cols[k]
			ln := int32(1)
			for k+ln < ptr[i+1] && cols[k+ln] == c0+ln {
				ln++
			}
			runCol = append(runCol, c0)
			runLen = append(runLen, ln)
			k += ln
		}
		runPtr[i+1] = int32(len(runCol))
	}
	return runCol, runLen, runPtr
}

// solveInto solves A*x = b, writing the solution into x. b is not
// modified; x and b must both have length n and may not alias. It
// walks the blocked run plan (see indexRuns) and is the DC
// operating-point solve; the result is bit-identical to the
// element-wise walk.
func (f *realLU) solveInto(x, b []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("pdn: solveInto with len(x)=%d len(b)=%d n=%d", len(x), len(b), n))
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	for i := 1; i < n; i++ {
		sum := x[i]
		kv := int(f.lPtr[i])
		for r := f.lRunPtr[i]; r < f.lRunPtr[i+1]; r++ {
			ln := int(f.lRunLen[r])
			j0 := int(f.lRunCol[r])
			if ln == 1 {
				sum -= f.lVal[kv] * x[j0]
				kv++
				continue
			}
			vals := f.lVal[kv : kv+ln : kv+ln]
			xs := x[j0 : j0+ln : j0+ln]
			for k, v := range vals {
				sum -= v * xs[k]
			}
			kv += ln
		}
		x[i] = sum
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		kv := int(f.uPtr[i])
		for r := f.uRunPtr[i]; r < f.uRunPtr[i+1]; r++ {
			ln := int(f.uRunLen[r])
			j0 := int(f.uRunCol[r])
			if ln == 1 {
				sum -= f.uVal[kv] * x[j0]
				kv++
				continue
			}
			vals := f.uVal[kv : kv+ln : kv+ln]
			xs := x[j0 : j0+ln : j0+ln]
			for k, v := range vals {
				sum -= v * xs[k]
			}
			kv += ln
		}
		x[i] = sum * f.invDiag[i]
	}
}

// solveInPlace solves A*x = b in place: on entry x holds the
// right-hand side already in permuted row order (slot i carries
// b[perm[i]], i.e. the caller scattered each contribution to unknown u
// into slot invPerm[u]); on exit x[i] is the solution of unknown i.
// The forward substitution only reads slots j < i that the pass has
// already finalized and the back substitution only reads slots j > i,
// so running in the right-hand-side buffer performs exactly the
// arithmetic of the two-buffer walk minus the gather copy — solutions
// are bit-identical.
//
// The walk is element-wise, not blocked: with one right-hand side the
// run bookkeeping costs more than the per-element column loads it
// avoids (the fill-reducing orderings leave almost every run at length
// one), which is the same trade the width-8 and width-16 kernels make.
func (f *realLU) solveInPlace(x []float64) {
	n := f.n
	if len(x) != n {
		panic(fmt.Sprintf("pdn: solveInPlace with len(x)=%d n=%d", len(x), n))
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

// solveBatchInPlace is solveInPlace for `lanes` lockstep right-hand
// sides (row i, lane l at i*lanes+l), already assembled in permuted
// row order. Widths 8 and 16 dispatch to the register-blocked kernels
// (hardware-vectorized where the host supports it); other widths walk
// the blocked run plan in place. Per lane every path performs the
// multiplies, subtractions and reciprocal scalings of solveInPlace in
// the same order, so a lane's solution does not depend on the width.
func (f *realLU) solveBatchInPlace(x []float64, lanes int) {
	n := f.n
	if lanes < 1 || len(x) != n*lanes {
		panic(fmt.Sprintf("pdn: solveBatchInPlace with len(x)=%d n=%d lanes=%d", len(x), n, lanes))
	}
	switch lanes {
	case DefaultBatchLanes:
		f.solveBatch8InPlace(x)
		return
	case WideBatchLanes:
		f.solveBatch16InPlace(x)
		return
	}
	for i := 1; i < n; i++ {
		xi := x[i*lanes : i*lanes+lanes : i*lanes+lanes]
		kv := int(f.lPtr[i])
		for r := f.lRunPtr[i]; r < f.lRunPtr[i+1]; r++ {
			ln := int(f.lRunLen[r])
			base := int(f.lRunCol[r]) * lanes
			for k := 0; k < ln; k++ {
				v := f.lVal[kv+k]
				xj := x[base+k*lanes : base+(k+1)*lanes : base+(k+1)*lanes]
				for l := range xi {
					xi[l] -= v * xj[l]
				}
			}
			kv += ln
		}
	}
	for i := n - 1; i >= 0; i-- {
		xi := x[i*lanes : i*lanes+lanes : i*lanes+lanes]
		kv := int(f.uPtr[i])
		for r := f.uRunPtr[i]; r < f.uRunPtr[i+1]; r++ {
			ln := int(f.uRunLen[r])
			base := int(f.uRunCol[r]) * lanes
			for k := 0; k < ln; k++ {
				v := f.uVal[kv+k]
				xj := x[base+k*lanes : base+(k+1)*lanes : base+(k+1)*lanes]
				for l := range xi {
					xi[l] -= v * xj[l]
				}
			}
			kv += ln
		}
		d := f.invDiag[i]
		for l := range xi {
			xi[l] *= d
		}
	}
}

// DefaultBatchLanes is the lane width the 8-wide substitution kernel
// is specialized for — exec.DefaultBatchWidth, restated here to keep
// pdn free of an exec import.
const DefaultBatchLanes = 8

// WideBatchLanes is the second specialized lane width: twice the
// default, for hosts whose calibration finds the per-lane cost still
// dropping past 8 (the substitution kernels gain instruction-level
// parallelism with width until the lane state outgrows cache).
const WideBatchLanes = 16

// solveBatch8InPlace is the width-8 register-blocked substitution,
// run in place on right-hand sides the caller assembled in permuted
// row order. Fixed-size array pointers drop every inner bounds check,
// and each row's eight lane accumulators are hoisted into locals, so
// they live in registers across the row's nonzero walk (x rows never
// self-alias — L touches only columns < i, U only columns > i). Like
// solveInPlace it walks the element-wise pattern: under the
// fill-reducing ordering almost every run has length one. On hosts with AVX2 the inner loops
// run in a hand-written vector kernel performing the identical IEEE
// multiplies and subtractions in the identical order (each 8-lane row
// is two 4-lane vectors; lanes are independent, so vectorizing across
// them reorders nothing within a lane) — results are bit-identical to
// this Go walk, as the equivalence tests pin.
func (f *realLU) solveBatch8InPlace(x []float64) {
	if useSolveAVX2 {
		fwdBack8AVX2(f.lVal, f.lCol, f.lPtr, f.uVal, f.uCol, f.uPtr, f.invDiag, x, f.n)
		return
	}
	const B = DefaultBatchLanes
	n := f.n
	for i := 1; i < n; i++ {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3, x4, x5, x6, x7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		for k := int(f.lPtr[i]); k < int(f.lPtr[i+1]); k++ {
			v := f.lVal[k]
			base := int(f.lCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= v * xj[0]
			x1 -= v * xj[1]
			x2 -= v * xj[2]
			x3 -= v * xj[3]
			x4 -= v * xj[4]
			x5 -= v * xj[5]
			x6 -= v * xj[6]
			x7 -= v * xj[7]
		}
		xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7] = x0, x1, x2, x3, x4, x5, x6, x7
	}
	for i := n - 1; i >= 0; i-- {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3, x4, x5, x6, x7 := xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7]
		for k := int(f.uPtr[i]); k < int(f.uPtr[i+1]); k++ {
			v := f.uVal[k]
			base := int(f.uCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= v * xj[0]
			x1 -= v * xj[1]
			x2 -= v * xj[2]
			x3 -= v * xj[3]
			x4 -= v * xj[4]
			x5 -= v * xj[5]
			x6 -= v * xj[6]
			x7 -= v * xj[7]
		}
		d := f.invDiag[i]
		xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7] = x0*d, x1*d, x2*d, x3*d, x4*d, x5*d, x6*d, x7*d
	}
}

// solveBatch16InPlace is the width-16 register-blocked substitution:
// the same element-wise walk as solveBatch8InPlace with sixteen lane
// accumulators (four 4-lane vectors per row under AVX2). Per lane the
// arithmetic order is identical to every other width.
func (f *realLU) solveBatch16InPlace(x []float64) {
	if useSolveAVX2 {
		fwdBack16AVX2(f.lVal, f.lCol, f.lPtr, f.uVal, f.uCol, f.uPtr, f.invDiag, x, f.n)
		return
	}
	const B = WideBatchLanes
	n := f.n
	// acc is the row's sixteen lane accumulators: a local block, so the
	// compiler knows the column loads cannot alias it (x rows never
	// self-alias — L touches only columns < i, U only columns > i).
	var acc [B]float64
	for i := 1; i < n; i++ {
		xi := (*[B]float64)(x[i*B : i*B+B])
		if f.lPtr[i] == f.lPtr[i+1] {
			continue
		}
		acc = *xi
		for k := int(f.lPtr[i]); k < int(f.lPtr[i+1]); k++ {
			v := f.lVal[k]
			base := int(f.lCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			for l := 0; l < B; l++ {
				acc[l] -= v * xj[l]
			}
		}
		*xi = acc
	}
	for i := n - 1; i >= 0; i-- {
		xi := (*[B]float64)(x[i*B : i*B+B])
		acc = *xi
		for k := int(f.uPtr[i]); k < int(f.uPtr[i+1]); k++ {
			v := f.uVal[k]
			base := int(f.uCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			for l := 0; l < B; l++ {
				acc[l] -= v * xj[l]
			}
		}
		d := f.invDiag[i]
		for l := 0; l < B; l++ {
			xi[l] = acc[l] * d
		}
	}
}
