package pdn

import (
	"fmt"
	"math"
	"math/bits"
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
// one. The pattern is the factor's only plan: every solve path walks
// it element by element in the same column order, so each lane
// performs identical arithmetic at every lane width.
type realLU struct {
	n    int
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
	// same order the dense loops visit them in. Each triangle is stored
	// once; the back substitutions walk U's rows downward.
	lVal, uVal []float64
	lCol, uCol []int32
	lPtr, uPtr []int32
	// lRows lists, ascending, the rows whose L part is non-empty: the
	// only rows the forward substitution changes. Their nonzeros are
	// contiguous in lVal, so a walk over lRows consumes the L stream in
	// order with one cursor.
	lRows []int32
	// invDiag is 1/diag(U), computed once at factorization time: the
	// substitutions scale each row by multiplying with the reciprocal
	// instead of dividing, trading one division per row per solve for
	// one per row per factorization. Every solve path (single- and
	// multi-RHS, Go and vector) uses the same reciprocal, so they all
	// remain byte-identical to one another.
	invDiag []float64
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
	f := &realLU{n: n, perm: perm}
	f.indexNonzeros(lu)
	return f, nil
}

// indexNonzeros records the nonzero pattern of the factored L and U
// triangles of the dense factor lu for the sparse substitutions. A
// counting pass sizes every pattern slice exactly, so the index costs
// one allocation per slice.
func (f *realLU) indexNonzeros(lu []float64) {
	n := f.n
	f.invPerm = make([]int, n)
	for i, p := range f.perm {
		f.invPerm[p] = i
	}
	lNZ, uNZ, lRows := 0, 0, 0
	for i := 0; i < n; i++ {
		row := lu[i*n : i*n+n]
		li := 0
		for j := 0; j < i; j++ {
			if row[j] != 0 {
				li++
			}
		}
		if li > 0 {
			lRows++
		}
		lNZ += li
		for j := i + 1; j < n; j++ {
			if row[j] != 0 {
				uNZ++
			}
		}
	}
	f.lPtr = make([]int32, n+1)
	f.uPtr = make([]int32, n+1)
	f.invDiag = make([]float64, n)
	f.lVal, f.lCol = make([]float64, 0, lNZ), make([]int32, 0, lNZ)
	f.uVal, f.uCol = make([]float64, 0, uNZ), make([]int32, 0, uNZ)
	f.lRows = make([]int32, 0, lRows)
	for i := 0; i < n; i++ {
		row := lu[i*n : i*n+n]
		f.invDiag[i] = 1 / row[i]
		for j := 0; j < i; j++ {
			if v := row[j]; v != 0 {
				f.lVal = append(f.lVal, v)
				f.lCol = append(f.lCol, int32(j))
			}
		}
		f.lPtr[i+1] = int32(len(f.lVal))
		if f.lPtr[i+1] > f.lPtr[i] {
			f.lRows = append(f.lRows, int32(i))
		}
		for j := i + 1; j < n; j++ {
			if v := row[j]; v != 0 {
				f.uVal = append(f.uVal, v)
				f.uCol = append(f.uCol, int32(j))
			}
		}
		f.uPtr[i+1] = int32(len(f.uVal))
	}
}

// solveInto solves A*x = b, writing the solution into x. b is not
// modified; x and b must both have length n and may not alias. It is
// the DC operating-point solve: a gather of b into permuted row order,
// then solveInPlace (a non-finite solution surfaces at the first
// Step, which checks every potential it solves).
func (f *realLU) solveInto(x, b []float64) {
	if len(b) != f.n || len(x) != f.n {
		panic(fmt.Sprintf("pdn: solveInto with len(x)=%d len(b)=%d n=%d", len(x), len(b), f.n))
	}
	for i, p := range f.perm {
		x[i] = b[p]
	}
	f.solveInPlace(x)
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
// The walk is a flat stream over each triangle. Forward, it visits only
// the rows in lRows and carries the nonzero cursor from row to row, so
// a row costs one bound load instead of two pointer loads and an
// empty-row test; back, it walks U's rows downward and carries each
// row's start as the next row's bound. Each row still subtracts its
// nonzeros in ascending column order, so the arithmetic is the
// element-wise walk's.
//
// The back pass also checks every finished row for divergence: v-v is
// +0 for every finite v and NaN for NaN and ±Inf, so the sum of v-v
// over the rows is NaN exactly when some solution value is non-finite.
// solveInPlace reports whether one is.
func (f *realLU) solveInPlace(x []float64) (diverged bool) {
	n := f.n
	if len(x) != n {
		panic(fmt.Sprintf("pdn: solveInPlace with len(x)=%d n=%d", len(x), n))
	}
	lVal, lCol, lPtr := f.lVal, f.lCol[:len(f.lVal)], f.lPtr
	k := 0
	for _, i := range f.lRows {
		end := int(lPtr[i+1])
		sum := x[i]
		for ; k < end; k++ {
			sum -= lVal[k] * x[lCol[k]]
		}
		x[i] = sum
	}
	uVal, uCol, uPtr, invDiag := f.uVal, f.uCol[:len(f.uVal)], f.uPtr[:n+1], f.invDiag[:n]
	end := len(uVal)
	chk := 0.0
	for i := n - 1; i >= 0; i-- {
		start := int(uPtr[i])
		sum := x[i]
		for k := start; k < end; k++ {
			sum -= uVal[k] * x[uCol[k]]
		}
		v := sum * invDiag[i]
		x[i] = v
		chk += v - v
		end = start
	}
	return chk != 0
}

// solveBatchInPlace is solveInPlace for `lanes` lockstep right-hand
// sides (row i, lane l at i*lanes+l), already assembled in permuted
// row order. Widths 4, 8 and 16 dispatch to the register-blocked
// kernels (hardware-vectorized where the host supports it); other
// widths walk the same nonzero pattern with a lane loop per nonzero,
// forward over lRows only, as solveInPlace does. Per lane every path
// performs the multiplies, subtractions and reciprocal scalings of
// solveInPlace in the same order, so a lane's solution does not depend
// on the width. Like solveInPlace, every path checks each row its back
// pass finishes; it returns the highest lane holding a non-finite
// solution value, or -1.
func (f *realLU) solveBatchInPlace(x []float64, lanes int) (bad int) {
	n := f.n
	if lanes < 1 || len(x) != n*lanes {
		panic(fmt.Sprintf("pdn: solveBatchInPlace with len(x)=%d n=%d lanes=%d", len(x), n, lanes))
	}
	switch lanes {
	case NarrowBatchLanes:
		return f.solveBatch4InPlace(x)
	case DefaultBatchLanes:
		return f.solveBatch8InPlace(x)
	case WideBatchLanes:
		return f.solveBatch16InPlace(x)
	}
	for _, i := range f.lRows {
		xi := x[int(i)*lanes : int(i)*lanes+lanes : int(i)*lanes+lanes]
		for k := f.lPtr[i]; k < f.lPtr[i+1]; k++ {
			v := f.lVal[k]
			j := int(f.lCol[k]) * lanes
			xj := x[j : j+lanes : j+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
	}
	bad = -1
	for i := n - 1; i >= 0; i-- {
		xi := x[i*lanes : i*lanes+lanes : i*lanes+lanes]
		for k := f.uPtr[i]; k < f.uPtr[i+1]; k++ {
			v := f.uVal[k]
			j := int(f.uCol[k]) * lanes
			xj := x[j : j+lanes : j+lanes]
			for l := range xi {
				xi[l] -= v * xj[l]
			}
		}
		d := f.invDiag[i]
		chk := 0.0
		for l := range xi {
			v := xi[l] * d
			xi[l] = v
			chk += v - v
		}
		for l := lanes - 1; chk != 0 && l > bad; l-- {
			if xi[l]-xi[l] != 0 {
				bad = l
			}
		}
	}
	return bad
}

// highestLane returns the highest lane whose divergence word in chk is
// non-zero, or -1.
func highestLane(chk []uint64) int {
	for l := len(chk) - 1; l >= 0; l-- {
		if chk[l] != 0 {
			return l
		}
	}
	return -1
}

// maskLane returns the highest lane set in a vector kernel's
// divergence mask (bit l for lane l), or -1.
func maskLane(m uint64) int { return bits.Len64(m) - 1 }

// NarrowBatchLanes is the narrowest register-blocked lane width: one
// 4-lane vector per row. Small studies split across idle workers reach
// it, such as an 8-point resonance grid on two workers.
const NarrowBatchLanes = 4

// DefaultBatchLanes is the lane width the 8-wide substitution kernel
// is specialized for — exec.DefaultBatchWidth, restated here to keep
// pdn free of an exec import.
const DefaultBatchLanes = 8

// WideBatchLanes is the second specialized lane width: twice the
// default. It is the auto width wherever the AVX2 substitution bodies
// run (see AutoBatchLanes).
const WideBatchLanes = 16

// AutoBatchLanes is the lane width studies use when their batch knob
// asks for auto: WideBatchLanes when the AVX2 substitution bodies run,
// DefaultBatchLanes on the pure-Go bodies. The rule restates what
// timing the two widths converges to on each body. On a shared 2-vCPU
// x86-64 host, BenchmarkBatchStep (12 interleaved runs, median per
// lane-step) cost 587 ns at width 8 and 550 ns at width 16 with AVX2,
// and 722 ns at width 8 and 774 ns at width 16 on the Go bodies. The
// lane state does not bound the width: a zEC12 lane streams 1,968 B
// of engine state per step, 31 KB at width 16. Lanes are bit-identical
// at every width, so the answer moves only wall-clock time.
func AutoBatchLanes() int {
	if useSolveAVX2 {
		return WideBatchLanes
	}
	return DefaultBatchLanes
}

// solveBatch4InPlace is the width-4 register-blocked substitution:
// the element-wise walk of solveBatch8InPlace with four lane
// accumulators (one 4-lane vector per row under AVX2). Per lane the
// arithmetic order is identical to every other width.
func (f *realLU) solveBatch4InPlace(x []float64) (bad int) {
	if useSolveAVX2 {
		return maskLane(fwdBack4AVX2(f.lVal, f.lCol, f.lPtr, f.uVal, f.uCol, f.uPtr, f.invDiag, x, f.n))
	}
	const B = NarrowBatchLanes
	n := f.n
	var chk [B]uint64 // per lane, the OR of v-v over the finished rows
	for i := 1; i < n; i++ {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3 := xi[0], xi[1], xi[2], xi[3]
		for k := int(f.lPtr[i]); k < int(f.lPtr[i+1]); k++ {
			v := f.lVal[k]
			base := int(f.lCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= v * xj[0]
			x1 -= v * xj[1]
			x2 -= v * xj[2]
			x3 -= v * xj[3]
		}
		xi[0], xi[1], xi[2], xi[3] = x0, x1, x2, x3
	}
	for i := n - 1; i >= 0; i-- {
		xi := (*[B]float64)(x[i*B : i*B+B])
		x0, x1, x2, x3 := xi[0], xi[1], xi[2], xi[3]
		for k := int(f.uPtr[i]); k < int(f.uPtr[i+1]); k++ {
			v := f.uVal[k]
			base := int(f.uCol[k]) * B
			xj := (*[B]float64)(x[base : base+B])
			x0 -= v * xj[0]
			x1 -= v * xj[1]
			x2 -= v * xj[2]
			x3 -= v * xj[3]
		}
		d := f.invDiag[i]
		x0, x1, x2, x3 = x0*d, x1*d, x2*d, x3*d
		xi[0], xi[1], xi[2], xi[3] = x0, x1, x2, x3
		chk[0] |= math.Float64bits(x0 - x0)
		chk[1] |= math.Float64bits(x1 - x1)
		chk[2] |= math.Float64bits(x2 - x2)
		chk[3] |= math.Float64bits(x3 - x3)
	}
	return highestLane(chk[:])
}

// solveBatch8InPlace is the width-8 register-blocked substitution,
// run in place on right-hand sides the caller assembled in permuted
// row order. Fixed-size array pointers drop every inner bounds check,
// and each row's eight lane accumulators are hoisted into locals, so
// they live in registers across the row's nonzero walk (x rows never
// self-alias — L touches only columns < i, U only columns > i). Like
// solveInPlace it walks the element-wise pattern. On hosts with AVX2
// the inner loops run in a hand-written vector kernel performing the
// identical IEEE multiplies and subtractions in the identical order
// (each 8-lane row is two 4-lane vectors; lanes are independent, so
// vectorizing across them reorders nothing within a lane) — results
// are bit-identical to this Go walk, as the equivalence tests pin.
func (f *realLU) solveBatch8InPlace(x []float64) (bad int) {
	if useSolveAVX2 {
		return maskLane(fwdBack8AVX2(f.lVal, f.lCol, f.lPtr, f.uVal, f.uCol, f.uPtr, f.invDiag, x, f.n))
	}
	const B = DefaultBatchLanes
	n := f.n
	var chk [B]uint64 // per lane, the OR of v-v over the finished rows
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
		x0, x1, x2, x3, x4, x5, x6, x7 = x0*d, x1*d, x2*d, x3*d, x4*d, x5*d, x6*d, x7*d
		xi[0], xi[1], xi[2], xi[3], xi[4], xi[5], xi[6], xi[7] = x0, x1, x2, x3, x4, x5, x6, x7
		chk[0] |= math.Float64bits(x0 - x0)
		chk[1] |= math.Float64bits(x1 - x1)
		chk[2] |= math.Float64bits(x2 - x2)
		chk[3] |= math.Float64bits(x3 - x3)
		chk[4] |= math.Float64bits(x4 - x4)
		chk[5] |= math.Float64bits(x5 - x5)
		chk[6] |= math.Float64bits(x6 - x6)
		chk[7] |= math.Float64bits(x7 - x7)
	}
	return highestLane(chk[:])
}

// solveBatch16InPlace is the width-16 register-blocked substitution:
// the same element-wise walk as solveBatch8InPlace with sixteen lane
// accumulators (four 4-lane vectors per row under AVX2). Per lane the
// arithmetic order is identical to every other width.
func (f *realLU) solveBatch16InPlace(x []float64) (bad int) {
	if useSolveAVX2 {
		return maskLane(fwdBack16AVX2(f.lVal, f.lCol, f.lPtr, f.uVal, f.uCol, f.uPtr, f.invDiag, x, f.n))
	}
	const B = WideBatchLanes
	n := f.n
	var chk [B]uint64 // per lane, the OR of v-v over the finished rows
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
			v := acc[l] * d
			xi[l] = v
			chk[l] |= math.Float64bits(v - v)
		}
	}
	return highestLane(chk[:])
}
