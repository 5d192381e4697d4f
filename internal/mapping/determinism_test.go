package mapping

import (
	"context"
	"reflect"
	"testing"
)

// TestBestWorstNDeterminism: the parallel, batched placement search
// returns exactly the serial batch-1 answer for every worker count —
// including the tie-break (earliest placement in enumeration order
// wins), which the ordered reduction preserves.
func TestBestWorstNDeterminism(t *testing.T) {
	ctx := context.Background()
	wantBest, wantWorst, err := BestWorst(ctx, 3, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		best, worst, err := BestWorst(ctx, 3, workers, 3, fakeEval)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(worst, wantWorst) {
			t.Errorf("workers=%d: got best=%+v worst=%+v, want %+v / %+v",
				workers, best, worst, wantBest, wantWorst)
		}
	}
}

// TestStudyNDeterminism: the whole opportunity study is bit-identical
// across worker counts and batch widths.
func TestStudyNDeterminism(t *testing.T) {
	ctx := context.Background()
	ks := []int{1, 2, 3}
	want, err := Study(ctx, ks, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8, 64} {
		got, err := Study(ctx, ks, workers, 3, fakeEval)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d batch=3 differs from serial batch 1:\n%+v\n%+v", workers, got, want)
		}
	}
}
