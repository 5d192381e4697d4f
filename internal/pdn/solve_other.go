//go:build !amd64

package pdn

// Non-amd64 hosts always take the pure-Go step and substitution walks.
var useSolveAVX2 = false

func fwdBack4AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) uint64 {
	panic("pdn: fwdBack4AVX2 without AVX2")
}

func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) uint64 {
	panic("pdn: fwdBack8AVX2 without AVX2")
}

func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) uint64 {
	panic("pdn: fwdBack16AVX2 without AVX2")
}

func history4AVX2(a, b []int32, geq, x, hist []float64, caps int) {
	panic("pdn: history4AVX2 without AVX2")
}

func history8AVX2(a, b []int32, geq, x, hist []float64, caps int) {
	panic("pdn: history8AVX2 without AVX2")
}

func history16AVX2(a, b []int32, geq, x, hist []float64, caps int) {
	panic("pdn: history16AVX2 without AVX2")
}

func gather4AVX2(coef []float64, col, ptr []int32, src, x []float64, n int) {
	panic("pdn: gather4AVX2 without AVX2")
}

func gather8AVX2(coef []float64, col, ptr []int32, src, x []float64, n int) {
	panic("pdn: gather8AVX2 without AVX2")
}

func gather16AVX2(coef []float64, col, ptr []int32, src, x []float64, n int) {
	panic("pdn: gather16AVX2 without AVX2")
}
