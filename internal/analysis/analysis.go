// Package analysis provides the statistics behind the paper's
// inter-core noise propagation study (Section VI): Pearson correlation
// matrices over per-core noise readings, agglomerative clustering to
// expose the core clusters the chip layout creates, and the workload
// mapping enumeration helpers the mapping studies are built on.
package analysis

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Correlation returns the Pearson correlation coefficient of x and y.
// It panics when the lengths differ or fewer than two samples are
// given; it returns NaN when either series is constant.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("analysis: correlation of series with lengths %d and %d", len(x), len(y)))
	}
	if len(x) < 2 {
		panic("analysis: correlation needs at least 2 samples")
	}
	n := float64(len(x))
	var mx, my float64
	for i := range x {
		mx += x[i]
		my += y[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationMatrix computes the pairwise correlation of the columns
// of samples: samples[i][j] is observation i of variable j. All rows
// must have equal length.
func CorrelationMatrix(samples [][]float64) [][]float64 {
	if len(samples) < 2 {
		panic("analysis: correlation matrix needs at least 2 observations")
	}
	vars := len(samples[0])
	cols := make([][]float64, vars)
	for j := 0; j < vars; j++ {
		cols[j] = make([]float64, len(samples))
	}
	for i, row := range samples {
		if len(row) != vars {
			panic(fmt.Sprintf("analysis: ragged sample row %d", i))
		}
		for j, v := range row {
			cols[j][i] = v
		}
	}
	out := make([][]float64, vars)
	for a := 0; a < vars; a++ {
		out[a] = make([]float64, vars)
		out[a][a] = 1
	}
	for a := 0; a < vars; a++ {
		for b := a + 1; b < vars; b++ {
			c := Correlation(cols[a], cols[b])
			out[a][b] = c
			out[b][a] = c
		}
	}
	return out
}

// Cluster performs average-linkage agglomerative clustering of n items
// using the similarity matrix sim (higher = more similar), stopping
// when k clusters remain. It returns the clusters as sorted index
// slices, ordered by their smallest member.
func Cluster(sim [][]float64, k int) [][]int {
	n := len(sim)
	if k < 1 || k > n {
		panic(fmt.Sprintf("analysis: cluster count %d for %d items", k, n))
	}
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avgSim := func(a, b []int) float64 {
		s := 0.0
		for _, i := range a {
			for _, j := range b {
				s += sim[i][j]
			}
		}
		return s / float64(len(a)*len(b))
	}
	for len(clusters) > k {
		bi, bj, best := -1, -1, math.Inf(-1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := avgSim(clusters[i], clusters[j]); s > best {
					best, bi, bj = s, i, j
				}
			}
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		slices.Sort(merged)
		next := make([][]int, 0, len(clusters)-1)
		for idx, c := range clusters {
			if idx != bi && idx != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	// Order clusters by smallest member for deterministic output.
	slices.SortFunc(clusters, func(a, b []int) int { return cmp.Compare(a[0], b[0]) })
	return clusters
}

// Combinations invokes fn with every k-subset of {0..n-1}, in
// lexicographic order. The slice passed to fn is reused; copy it to
// retain.
func Combinations(n, k int, fn func([]int)) {
	if k < 0 || k > n {
		panic(fmt.Sprintf("analysis: combinations C(%d,%d)", n, k))
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// Assignments invokes fn with every assignment of one of m labels to
// each of n slots (m^n total), in odometer order. The slice passed to
// fn is reused.
func Assignments(n, m int, fn func([]int)) {
	if n < 0 || m < 1 {
		panic(fmt.Sprintf("analysis: assignments %d^%d", m, n))
	}
	a := make([]int, n)
	for {
		fn(a)
		pos := n - 1
		for pos >= 0 {
			a[pos]++
			if a[pos] < m {
				break
			}
			a[pos] = 0
			pos--
		}
		if pos < 0 {
			return
		}
	}
}
