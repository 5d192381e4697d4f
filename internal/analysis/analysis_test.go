package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCorrelationKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	if got := Correlation(x, x); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %g", got)
	}
	neg := []float64{5, 4, 3, 2, 1}
	if got := Correlation(x, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %g", got)
	}
	// Orthogonal series.
	a := []float64{1, -1, 1, -1}
	b := []float64{1, 1, -1, -1}
	if got := Correlation(a, b); math.Abs(got) > 1e-12 {
		t.Errorf("orthogonal correlation = %g", got)
	}
}

func TestCorrelationEdgeCases(t *testing.T) {
	if !math.IsNaN(Correlation([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Error("constant series should give NaN")
	}
	for name, fn := range map[string]func(){
		"length mismatch": func() { Correlation([]float64{1}, []float64{1, 2}) },
		"too short":       func() { Correlation([]float64{1}, []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestCorrelationMatrix(t *testing.T) {
	samples := [][]float64{
		{1, 2, -1},
		{2, 4, -2},
		{3, 6, -3},
		{4, 8, -4.5},
	}
	m := CorrelationMatrix(samples)
	if len(m) != 3 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := 0; i < 3; i++ {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d] = %g", i, m[i][i])
		}
	}
	if math.Abs(m[0][1]-1) > 1e-12 {
		t.Errorf("corr(0,1) = %g, want 1", m[0][1])
	}
	if m[0][2] >= 0 || m[0][2] < -1 {
		t.Errorf("corr(0,2) = %g, want in [-1,0)", m[0][2])
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix not symmetric")
	}
}

func TestCorrelationMatrixValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"too few rows": func() { CorrelationMatrix([][]float64{{1, 2}}) },
		"ragged":       func() { CorrelationMatrix([][]float64{{1, 2}, {1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestClusterTwoGroups(t *testing.T) {
	// Items 0,2,4 mutually similar; 1,3,5 mutually similar — the
	// paper's cluster structure.
	n := 6
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		for j := range sim[i] {
			switch {
			case i == j:
				sim[i][j] = 1
			case i%2 == j%2:
				sim[i][j] = 0.97
			default:
				sim[i][j] = 0.92
			}
		}
	}
	clusters := Cluster(sim, 2)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	want := [][]int{{0, 2, 4}, {1, 3, 5}}
	for i := range want {
		if len(clusters[i]) != 3 {
			t.Fatalf("cluster %d = %v", i, clusters[i])
		}
		for j := range want[i] {
			if clusters[i][j] != want[i][j] {
				t.Errorf("cluster %d = %v, want %v", i, clusters[i], want[i])
			}
		}
	}
}

func TestClusterBounds(t *testing.T) {
	sim := [][]float64{{1, 0}, {0, 1}}
	if got := Cluster(sim, 2); len(got) != 2 {
		t.Errorf("k=n clusters = %v", got)
	}
	if got := Cluster(sim, 1); len(got) != 1 || len(got[0]) != 2 {
		t.Errorf("k=1 clusters = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for k=0")
		}
	}()
	Cluster(sim, 0)
}

func TestCombinations(t *testing.T) {
	var got [][]int
	Combinations(4, 2, func(c []int) {
		got = append(got, append([]int{}, c...))
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("C(4,2) produced %d combos", len(got))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("combo %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	// k == 0: a single empty combination.
	count := 0
	Combinations(3, 0, func(c []int) { count++ })
	if count != 1 {
		t.Errorf("C(3,0) invoked %d times", count)
	}
}

func TestAssignments(t *testing.T) {
	count := 0
	seen := map[[3]int]bool{}
	Assignments(3, 2, func(a []int) {
		count++
		seen[[3]int{a[0], a[1], a[2]}] = true
	})
	if count != 8 {
		t.Errorf("2^3 assignments = %d", count)
	}
	if len(seen) != 8 {
		t.Errorf("assignments not distinct: %d", len(seen))
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestCorrelationProperty(t *testing.T) {
	f := func(raw [8]int8, raw2 [8]int8) bool {
		x := make([]float64, 8)
		y := make([]float64, 8)
		for i := range x {
			x[i] = float64(raw[i])
			y[i] = float64(raw2[i])
		}
		c1 := Correlation(x, y)
		c2 := Correlation(y, x)
		if math.IsNaN(c1) {
			return math.IsNaN(c2)
		}
		return math.Abs(c1-c2) < 1e-12 && c1 >= -1-1e-9 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: combination count matches C(n, k).
func TestCombinationCountProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%8) + 1
		k := int(kRaw) % (n + 1)
		count := 0
		Combinations(n, k, func([]int) { count++ })
		want := 1
		for i := 0; i < k; i++ {
			want = want * (n - i) / (i + 1)
		}
		return count == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
