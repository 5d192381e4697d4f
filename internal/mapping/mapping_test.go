package mapping

import (
	"fmt"
	"reflect"
	"testing"

	"voltnoise/internal/core"
)

// fakeScore scores placements by a synthetic rule: placements
// concentrated in one layout cluster (all same parity) are noisiest,
// mirroring the paper's finding.
func fakeScore(cores []int) (float64, int) {
	sameParity := true
	for _, c := range cores[1:] {
		if c%2 != cores[0]%2 {
			sameParity = false
		}
	}
	score := 20 + float64(len(cores))*2
	if sameParity {
		score += 4
	}
	return score, cores[0]
}

// measure scores every placement of k workloads with score, in
// Placements' order.
func measure(t *testing.T, k int, score func([]int) (float64, int)) []Placement {
	t.Helper()
	ps, err := Placements(k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Placement, len(ps))
	for i, cores := range ps {
		w, wc := score(cores)
		out[i] = Placement{Cores: cores, WorstP2P: w, WorstCore: wc}
	}
	return out
}

// TestBestWorst: the fold of the k=3 placements picks a single-cluster
// trio as the noisiest and a mixed one as the quietest.
func TestBestWorst(t *testing.T) {
	op := Fold(3, measure(t, 3, fakeScore))
	best, worst := op.Best, op.Worst
	if worst.WorstP2P <= best.WorstP2P {
		t.Errorf("worst %g <= best %g", worst.WorstP2P, best.WorstP2P)
	}
	// The worst placement must be a single-parity (same-cluster) trio.
	par := worst.Cores[0] % 2
	for _, c := range worst.Cores {
		if c%2 != par {
			t.Errorf("worst placement %v not single-cluster", worst.Cores)
		}
	}
	// Best placement mixes clusters.
	mixed := false
	for _, c := range best.Cores[1:] {
		if c%2 != best.Cores[0]%2 {
			mixed = true
		}
	}
	if !mixed {
		t.Errorf("best placement %v not mixed", best.Cores)
	}
	if len(best.Cores) != 3 || len(worst.Cores) != 3 {
		t.Error("placement sizes wrong")
	}
}

// TestFoldTieBreak: among equally noisy placements the earliest in
// enumeration order wins, for the best and for the worst.
func TestFoldTieBreak(t *testing.T) {
	op := Fold(3, measure(t, 3, fakeScore))
	if want := []int{0, 1, 2}; !reflect.DeepEqual(op.Best.Cores, want) {
		t.Errorf("best %v, want the first mixed trio %v", op.Best.Cores, want)
	}
	if want := []int{0, 2, 4}; !reflect.DeepEqual(op.Worst.Cores, want) {
		t.Errorf("worst %v, want the first single-cluster trio %v", op.Worst.Cores, want)
	}
	flat := Fold(2, measure(t, 2, func([]int) (float64, int) { return 7, 0 }))
	if want := []int{0, 1}; !reflect.DeepEqual(flat.Best.Cores, want) || !reflect.DeepEqual(flat.Worst.Cores, want) {
		t.Errorf("all tied: best %v worst %v, want both %v", flat.Best.Cores, flat.Worst.Cores, want)
	}
	if empty := Fold(2, nil); !reflect.DeepEqual(empty, Opportunity{Workloads: 2}) {
		t.Errorf("no placements: %+v", empty)
	}
}

// TestBestWorstValidation: a workload count outside 1..NumCores has
// no placements.
func TestBestWorstValidation(t *testing.T) {
	for _, k := range []int{0, -1, core.NumCores + 1} {
		ps, err := Placements(k)
		if err == nil || ps != nil {
			t.Errorf("k=%d accepted: %v", k, ps)
			continue
		}
		if want := fmt.Sprintf("mapping: %d workloads on 6 cores", k); err.Error() != want {
			t.Errorf("k=%d: error %q, want %q", k, err, want)
		}
	}
}

// TestBestWorstEnumeratesAllPlacements: Placements(k) lists all
// C(NumCores, k) placements, each ascending, in lexicographic order.
func TestBestWorstEnumeratesAllPlacements(t *testing.T) {
	for k := 1; k <= core.NumCores; k++ {
		ps, err := Placements(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := [...]int{1, 6, 15, 20, 15, 6, 1}[k]; len(ps) != want { // C(6, k)
			t.Errorf("k=%d: %d placements, want %d", k, len(ps), want)
		}
		for i, cores := range ps {
			if len(cores) != k {
				t.Errorf("k=%d: placement %v has %d cores", k, cores, len(cores))
			}
			for j := 1; j < len(cores); j++ {
				if cores[j] <= cores[j-1] {
					t.Errorf("k=%d: placement %v not ascending", k, cores)
				}
			}
			if i > 0 && !lexLess(ps[i-1], cores) {
				t.Errorf("k=%d: %v listed before %v", k, ps[i-1], cores)
			}
		}
	}
	if first, _ := Placements(3); !reflect.DeepEqual(first[0], []int{0, 1, 2}) || !reflect.DeepEqual(first[len(first)-1], []int{3, 4, 5}) {
		t.Errorf("k=3 runs %v .. %v, want [0 1 2] .. [3 4 5]", first[0], first[len(first)-1])
	}
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// TestStudy folds each workload count's placements, as the Figure 15
// study does over its counts.
func TestStudy(t *testing.T) {
	var ops []Opportunity
	for _, k := range []int{1, 3, 6} {
		ops = append(ops, Fold(k, measure(t, k, fakeScore)))
	}
	// k=6: only one placement -> zero gain.
	if ops[2].GainP2P != 0 {
		t.Errorf("k=6 gain = %g, want 0", ops[2].GainP2P)
	}
	// k=3: cluster effect gives positive gain.
	if ops[1].GainP2P <= 0 {
		t.Errorf("k=3 gain = %g, want > 0", ops[1].GainP2P)
	}
	// k=1: single cores are trivially same-parity, so every placement
	// scores alike -> gain 0.
	if ops[0].GainP2P != 0 {
		t.Errorf("k=1 gain = %g", ops[0].GainP2P)
	}
	for i, op := range ops {
		if op.Workloads != []int{1, 3, 6}[i] {
			t.Errorf("opportunity %d for %d workloads", i, op.Workloads)
		}
		if op.GainP2P != op.Worst.WorstP2P-op.Best.WorstP2P {
			t.Error("gain inconsistent with placements")
		}
	}
}
