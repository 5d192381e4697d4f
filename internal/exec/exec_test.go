package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrderAndValues: for arbitrary (n, workers) combinations —
// including workers 0 (default), 1 (serial), workers > n, and n == 0 —
// Map returns exactly [f(0), ..., f(n-1)] in order.
func TestMapOrderAndValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ n, workers int }{
		{0, 4}, {1, 0}, {1, 1}, {1, 8}, {5, 0}, {5, 1}, {5, 2}, {5, 5}, {5, 64}, {100, 7},
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, struct{ n, workers int }{rng.Intn(200), rng.Intn(20)})
	}
	for _, c := range cases {
		out, err := Map(context.Background(), c.n, c.workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		if len(out) != c.n {
			t.Fatalf("n=%d workers=%d: got %d results", c.n, c.workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("n=%d workers=%d: out[%d] = %d", c.n, c.workers, i, v)
			}
		}
	}
}

// TestMapRunToRunDeterminism: two parallel runs over a
// scheduling-sensitive function (random sleeps) agree exactly with
// each other and with the serial run.
func TestMapRunToRunDeterminism(t *testing.T) {
	fn := func(_ context.Context, i int) (float64, error) {
		time.Sleep(time.Duration(i%7) * 100 * time.Microsecond) // scramble completion order
		return float64(i) * 1.5, nil
	}
	serial, err := Map(context.Background(), 50, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		par, err := Map(context.Background(), 50, 8, fn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("run %d: par[%d] = %g, serial %g", run, i, par[i], serial[i])
			}
		}
	}
}

// TestMapNegativeN: a negative item count is an error, not a hang.
func TestMapNegativeN(t *testing.T) {
	_, err := Map(context.Background(), -1, 4, func(context.Context, int) (int, error) { return 0, nil })
	if err == nil {
		t.Fatal("no error for n = -1")
	}
}

// TestErrorPropagation: with several failing items, the lowest-index
// error is returned under every worker count — matching what a serial
// loop reports first.
func TestErrorPropagation(t *testing.T) {
	fail := map[int]bool{3: true, 7: true, 12: true}
	fn := func(_ context.Context, i int) (int, error) {
		if fail[i] {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	}
	for _, workers := range []int{1, 2, 8, 32} {
		_, err := Map(context.Background(), 20, workers, fn)
		if err == nil || err.Error() != "item 3 failed" {
			t.Fatalf("workers=%d: err = %v, want item 3 failed", workers, err)
		}
	}
}

// TestErrorCancelsOutstanding: after an error, items beyond the
// failure are cancelled rather than all executed.
func TestErrorCancelsOutstanding(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	fn := func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		// Items sleep so the cancellation lands before the pool drains
		// the whole range.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(50 * time.Millisecond):
			return i, nil
		}
	}
	_, err := Map(context.Background(), 1000, 4, fn)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 100 {
		t.Errorf("%d items started after early failure", n)
	}
}

// TestContextCancellation: cancelling the parent context mid-flight
// surfaces context.Canceled and stops issuing work.
func TestContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		fn := func(ctx context.Context, i int) (int, error) {
			if calls.Add(1) == 3 {
				cancel()
			}
			return i, nil
		}
		_, err := Map(ctx, 10000, workers, fn)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n > 1000 {
			t.Errorf("workers=%d: %d calls after cancellation", workers, n)
		}
	}
}

// TestPanicRecovery: a panicking item surfaces as *PanicError instead
// of crashing the process, under every worker count.
func TestPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(context.Background(), 10, workers, func(_ context.Context, i int) (int, error) {
			if i == 4 {
				panic("measurement exploded")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 4 || pe.Value != "measurement exploded" {
			t.Fatalf("workers=%d: panic = %+v", workers, pe)
		}
		if !strings.Contains(pe.Error(), "measurement exploded") || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic error lacks detail: %v", workers, pe)
		}
	}
}

// TestMapStolenWidth1StreamsInOrder: at width 1 the reduction
// callback sees items strictly in index order whatever the completion
// order.
func TestMapStolenWidth1StreamsInOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var seen []int
		err := MapStolen(context.Background(), 40, 1, workers,
			func(_ context.Context, i, _ int) (int, error) {
				time.Sleep(time.Duration((40-i)%5) * 100 * time.Microsecond)
				return i, nil
			},
			func(i, start, _ int, v int) error {
				if i != start || i != v {
					t.Fatalf("item %d covers start %d and carries value %d", i, start, v)
				}
				seen = append(seen, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 40 {
			t.Fatalf("workers=%d: reduced %d items", workers, len(seen))
		}
		for i, v := range seen {
			if v != i {
				t.Fatalf("workers=%d: reduction order %v", workers, seen)
			}
		}
	}
}

// TestMapStolenWidth1EarlyStop: ErrStop ends the width-1 reduction
// deterministically — the same items are reduced under any worker
// count, and MapStolen returns nil.
func TestMapStolenWidth1EarlyStop(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var reduced []int
		err := MapStolen(context.Background(), 100, 1, workers,
			func(_ context.Context, i, _ int) (int, error) { return i, nil },
			func(i, _, _ int, v int) error {
				reduced = append(reduced, i)
				if i == 6 {
					return ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(reduced) != 7 || reduced[6] != 6 {
			t.Fatalf("workers=%d: reduced %v, want [0..6]", workers, reduced)
		}
	}
}

// TestMapStolenWidth1EachError: a non-ErrStop reduction error is
// returned as-is.
func TestMapStolenWidth1EachError(t *testing.T) {
	boom := errors.New("reduce failed")
	for _, workers := range []int{1, 4} {
		err := MapStolen(context.Background(), 10, 1, workers,
			func(_ context.Context, i, _ int) (int, error) { return i, nil },
			func(i, _, _ int, v int) error {
				if i == 2 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestClamp pins the workers-resolution rules.
func TestClamp(t *testing.T) {
	if got := Clamp(0, 1000); got != DefaultWorkers() {
		t.Errorf("Clamp(0, 1000) = %d, want %d", got, DefaultWorkers())
	}
	if got := Clamp(-3, 1000); got != DefaultWorkers() {
		t.Errorf("Clamp(-3, 1000) = %d, want %d", got, DefaultWorkers())
	}
	if got := Clamp(16, 4); got != 4 {
		t.Errorf("Clamp(16, 4) = %d", got)
	}
	if got := Clamp(16, 0); got != 1 {
		t.Errorf("Clamp(16, 0) = %d", got)
	}
}

func TestBatchWidth(t *testing.T) {
	cases := []struct {
		batch, n, want int
	}{
		{0, 100, 8},  // auto: full default width
		{0, 3, 3},    // auto capped at the item count (only BatchWidthAuto splits for workers)
		{1, 100, 1},  // explicit lane-per-run
		{3, 100, 3},  // explicit width passes through
		{16, 5, 5},   // width capped at the item count
		{-2, 100, 8}, // negative behaves like auto
		{4, 0, 1},    // no items
	}
	for _, c := range cases {
		if got := BatchWidth(c.batch, c.n); got != c.want {
			t.Errorf("BatchWidth(%d, %d) = %d, want %d", c.batch, c.n, got, c.want)
		}
	}
}

func TestBatchWidthAuto(t *testing.T) {
	cases := []struct {
		batch, n, workers, auto, want int
	}{
		{0, 100, 1, 16, 16},  // auto defers to the auto width; one worker: no split
		{0, 5, 1, 16, 5},     // still capped at the item count
		{0, 100, 1, 0, 8},    // no auto width: static default
		{-1, 100, 1, 16, 16}, // negative behaves like auto
		{3, 100, 1, 16, 3},   // explicit width wins
		{1, 100, 1, 16, 1},   // explicit lane-per-run wins
		{0, 8, 2, 16, 4},     // auto split so both workers get a batch
		{0, 2, 2, 16, 1},     // one lane per worker
		{0, 32, 2, 16, 16},   // two full batches already feed both workers
		{0, 24, 2, 16, 16},   // 16+8 feeds both workers: not rebalanced to 12+12
		{0, 17, 2, 16, 16},   // 16+1 feeds both workers
		{0, 41, 4, 16, 11},   // three batches for four workers: split
		{0, 7, 2, 16, 4},     // ceil(7/2)
		{0, 3, 8, 16, 1},     // more workers than items
		{0, 100, 2, 0, 8},    // static default under the cap
		{0, 8, 2, 0, 4},      // the cap applies to the static default too
		{0, 1, 1, 16, 1},     // a single item
		{0, 0, 1, 16, 1},     // no items
		{8, 8, 2, 16, 8},     // explicit width ignores workers
		{16, 2, 2, 16, 2},    // explicit width only capped at n
		{3, 100, 64, 16, 3},  // explicit width ignores workers
	}
	for _, c := range cases {
		if got := BatchWidthAuto(c.batch, c.n, c.workers, c.auto); got != c.want {
			t.Errorf("BatchWidthAuto(%d, %d, %d, %d) = %d, want %d", c.batch, c.n, c.workers, c.auto, got, c.want)
		}
	}
}

func TestChunks(t *testing.T) {
	if got := Chunks(7, 3); len(got) != 3 || got[0] != [2]int{0, 3} || got[1] != [2]int{3, 6} || got[2] != [2]int{6, 7} {
		t.Errorf("Chunks(7,3) = %v", got)
	}
	if got := Chunks(4, 4); len(got) != 1 || got[0] != [2]int{0, 4} {
		t.Errorf("Chunks(4,4) = %v", got)
	}
	if got := Chunks(0, 3); got != nil {
		t.Errorf("Chunks(0,3) = %v, want nil", got)
	}
}

// TestNumChunks: NumChunks must agree with len(Chunks) everywhere,
// including the degenerate widths Chunks rejects.
func TestNumChunks(t *testing.T) {
	for n := 0; n <= 20; n++ {
		for width := -1; width <= 10; width++ {
			want := len(Chunks(n, width))
			if width < 1 {
				want = len(Chunks(n, 1))
			}
			if got := NumChunks(n, width); got != want {
				t.Errorf("NumChunks(%d,%d) = %d, want %d", n, width, got, want)
			}
		}
	}
}
