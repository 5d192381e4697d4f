package scheduler

import (
	"reflect"
	"testing"

	"voltnoise/internal/core"
)

// TestFitPairwiseDeterminism: fitting the pairwise model with the 21
// measurements fanned out across workers produces the exact model the
// serial fit does — each measurement depends only on its core set and
// the coupling combine runs in fixed pair order.
func TestFitPairwiseDeterminism(t *testing.T) {
	ref := clusterModel()
	eval := func(cores []int) (float64, error) {
		var busy [core.NumCores]bool
		for _, c := range cores {
			busy[c] = true
		}
		return ref.WorstNoise(busy), nil
	}
	want, err := FitPairwise(1, eval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := FitPairwise(workers, eval)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d model differs from serial fit", workers)
		}
	}
}
