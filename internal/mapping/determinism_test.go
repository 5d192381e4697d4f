package mapping

import (
	"context"
	"reflect"
	"testing"
)

// TestBestWorstDeterminism: the parallel, batched placement search
// returns exactly the serial batch-1 answer for every worker count and
// batch width — including the tie-break (earliest placement in
// enumeration order wins), which the ordered reduction preserves.
func TestBestWorstDeterminism(t *testing.T) {
	ctx := context.Background()
	wantBest, wantWorst, err := BestWorst(ctx, 3, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		for _, batch := range []int{0, 3, 8, 16} {
			best, worst, err := BestWorst(ctx, 3, workers, batch, fakeEval)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(worst, wantWorst) {
				t.Errorf("workers=%d batch=%d: got best=%+v worst=%+v, want %+v / %+v",
					workers, batch, best, worst, wantBest, wantWorst)
			}
		}
	}
}

// TestStudyDeterminism: the whole opportunity study is bit-identical
// across worker counts and batch widths.
func TestStudyDeterminism(t *testing.T) {
	ctx := context.Background()
	ks := []int{1, 2, 3}
	want, err := Study(ctx, ks, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		for _, batch := range []int{0, 3, 8, 16} {
			got, err := Study(ctx, ks, workers, batch, fakeEval)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d batch=%d differs from serial batch 1:\n%+v\n%+v", workers, batch, got, want)
			}
		}
	}
}
