//go:build !amd64

package pdn

// Non-amd64 hosts always take the pure-Go substitution walks.
var useSolveAVX2 = false

func fwdBack4AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) {
	panic("pdn: fwdBack4AVX2 without AVX2")
}

func fwdBack8AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) {
	panic("pdn: fwdBack8AVX2 without AVX2")
}

func fwdBack16AVX2(lVal []float64, lCol, lPtr []int32, uVal []float64, uCol, uPtr []int32, invDiag, x []float64, n int) {
	panic("pdn: fwdBack16AVX2 without AVX2")
}
