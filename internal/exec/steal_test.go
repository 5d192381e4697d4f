package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealChunksCoverage: for arbitrary (n, width, workers) triples —
// including n=0, n<width, and workers>n — concatenating the per-worker
// queues yields exactly Chunks(n, width), so every index of [0, n) is
// owned exactly once.
func TestStealChunksCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ n, width, workers int }{
		{0, 8, 4}, // no items: all queues empty
		{5, 8, 4}, // n < width: a single chunk
		{3, 1, 8}, // workers > n: trailing queues empty
		{1, 1, 1},
		{100, 8, 1},
		{100, 8, 3},
		{17, 5, 4},
		{64, 8, 8},
	}
	for i := 0; i < 50; i++ {
		cases = append(cases, struct{ n, width, workers int }{rng.Intn(300), 1 + rng.Intn(12), 1 + rng.Intn(16)})
	}
	for _, c := range cases {
		queues := partitionChunks(Chunks(c.n, c.width), c.workers)
		if len(queues) != c.workers {
			t.Fatalf("n=%d width=%d workers=%d: %d queues", c.n, c.width, c.workers, len(queues))
		}
		var flat [][2]int
		for _, q := range queues {
			flat = append(flat, q...)
		}
		want := Chunks(c.n, c.width)
		if len(flat) != len(want) {
			t.Fatalf("n=%d width=%d workers=%d: %d chunks, want %d", c.n, c.width, c.workers, len(flat), len(want))
		}
		covered := make([]int, c.n)
		for ci, ch := range flat {
			if ch != want[ci] {
				t.Fatalf("n=%d width=%d workers=%d: chunk %d = %v, want %v", c.n, c.width, c.workers, ci, ch, want[ci])
			}
			for i := ch[0]; i < ch[1]; i++ {
				covered[i]++
			}
		}
		for i, k := range covered {
			if k != 1 {
				t.Fatalf("n=%d width=%d workers=%d: index %d covered %d times", c.n, c.width, c.workers, i, k)
			}
		}
		// Queue sizes are near-equal: they differ by at most one chunk.
		min, max := len(want), 0
		for _, q := range queues {
			if len(q) < min {
				min = len(q)
			}
			if len(q) > max {
				max = len(q)
			}
		}
		if len(want) > 0 && max-min > 1 {
			t.Fatalf("n=%d width=%d workers=%d: queue sizes span [%d,%d]", c.n, c.width, c.workers, min, max)
		}
	}
}

// TestStealQueuesDrain: however the workers interleave, next() hands
// out every chunk exactly once with its correct global index.
func TestStealQueuesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, width, workers := rng.Intn(200), 1+rng.Intn(9), 1+rng.Intn(8)
		chunks := Chunks(n, width)
		sq := &stealQueues{queues: partitionChunks(chunks, workers), base: make([]int, workers)}
		pos := 0
		for w := range sq.queues {
			sq.base[w] = pos
			pos += len(sq.queues[w])
		}
		got := make(map[int][2]int)
		for {
			w := rng.Intn(workers)
			ch, ci, ok := sq.next(w)
			if !ok {
				// One worker drained; confirm all are.
				for v := 0; v < workers; v++ {
					if _, _, ok := sq.next(v); ok {
						t.Fatalf("trial %d: worker %d drained but %d still had work", trial, w, v)
					}
				}
				break
			}
			if prev, dup := got[ci]; dup {
				t.Fatalf("trial %d: chunk %d handed out twice (%v, %v)", trial, ci, prev, ch)
			}
			got[ci] = ch
		}
		if len(got) != len(chunks) {
			t.Fatalf("trial %d: drained %d chunks, want %d", trial, len(got), len(chunks))
		}
		for ci, want := range chunks {
			if got[ci] != want {
				t.Fatalf("trial %d: chunk %d = %v, want %v", trial, ci, got[ci], want)
			}
		}
	}
}

// TestMapStolenOrderAndValues: the reduction sees every chunk exactly
// once, strictly in chunk order, with the right bounds, under arbitrary
// (n, width, workers).
func TestMapStolenOrderAndValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, width, workers int }{
		{0, 3, 4}, {1, 3, 4}, {5, 8, 2}, {40, 3, 8}, {100, 7, 0},
	}
	for i := 0; i < 15; i++ {
		cases = append(cases, struct{ n, width, workers int }{rng.Intn(200), 1 + rng.Intn(10), rng.Intn(10)})
	}
	for _, c := range cases {
		want := Chunks(c.n, c.width)
		var seen [][2]int
		err := MapStolen(context.Background(), c.n, c.width, c.workers,
			func(_ context.Context, start, end int) (int, error) {
				time.Sleep(time.Duration((start+end)%3) * 50 * time.Microsecond)
				return start * end, nil
			},
			func(ci, start, end int, v int) error {
				if ci != len(seen) {
					t.Fatalf("n=%d width=%d workers=%d: chunk %d reduced at position %d", c.n, c.width, c.workers, ci, len(seen))
				}
				if v != start*end {
					t.Fatalf("n=%d width=%d workers=%d: chunk %d carries %d, want %d", c.n, c.width, c.workers, ci, v, start*end)
				}
				seen = append(seen, [2]int{start, end})
				return nil
			})
		if err != nil {
			t.Fatalf("n=%d width=%d workers=%d: %v", c.n, c.width, c.workers, err)
		}
		if len(seen) != len(want) {
			t.Fatalf("n=%d width=%d workers=%d: reduced %d chunks, want %d", c.n, c.width, c.workers, len(seen), len(want))
		}
		for ci := range want {
			if seen[ci] != want[ci] {
				t.Fatalf("n=%d width=%d workers=%d: chunk %d = %v, want %v", c.n, c.width, c.workers, ci, seen[ci], want[ci])
			}
		}
	}
}

// TestMapStolenEarlyStop: ErrStop from the reduction ends the run with
// nil, and — because reduction is ordered — the same chunks are reduced
// under every worker count.
func TestMapStolenEarlyStop(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var reduced []int
		err := MapStolen(context.Background(), 100, 4, workers,
			func(_ context.Context, start, end int) (int, error) { return start, nil },
			func(ci, start, end int, v int) error {
				reduced = append(reduced, ci)
				if ci == 5 {
					return ErrStop
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(reduced) != 6 || reduced[5] != 5 {
			t.Fatalf("workers=%d: reduced %v, want [0..5]", workers, reduced)
		}
	}
}

// TestMapStolenErrorPropagation: with several failing chunks, the
// lowest-index chunk's error wins under every worker count.
func TestMapStolenErrorPropagation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := MapStolen(context.Background(), 60, 4, workers,
			func(_ context.Context, start, end int) (int, error) {
				ci := start / 4
				if ci == 3 || ci == 9 {
					return 0, fmt.Errorf("chunk %d failed", ci)
				}
				return 0, nil
			},
			func(ci, start, end int, v int) error { return nil })
		if err == nil || err.Error() != "chunk 3 failed" {
			t.Fatalf("workers=%d: err = %v, want chunk 3 failed", workers, err)
		}
	}
}

// TestMapStolenReduceError: a non-ErrStop reduction error is returned
// as-is and cancels the run.
func TestMapStolenReduceError(t *testing.T) {
	boom := errors.New("reduce failed")
	for _, workers := range []int{1, 4} {
		err := MapStolen(context.Background(), 40, 4, workers,
			func(_ context.Context, start, end int) (int, error) { return 0, nil },
			func(ci, start, end int, v int) error {
				if ci == 2 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

// TestMapStolenPanicRecovery: a panicking chunk surfaces as
// *PanicError, like the shared-counter pool.
func TestMapStolenPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := MapStolen(context.Background(), 40, 4, workers,
			func(_ context.Context, start, end int) (int, error) {
				if start == 16 {
					panic("chunk exploded")
				}
				return 0, nil
			},
			func(ci, start, end int, v int) error { return nil })
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "chunk exploded" {
			t.Fatalf("workers=%d: panic = %+v", workers, pe)
		}
	}
}

// TestMapStolenCancellation: cancelling the parent context surfaces
// context.Canceled and stops issuing chunks.
func TestMapStolenCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := MapStolen(ctx, 100000, 1, workers,
			func(_ context.Context, start, end int) (int, error) {
				if calls.Add(1) == 3 {
					cancel()
				}
				return 0, nil
			},
			func(ci, start, end int, v int) error { return nil })
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n > 10000 {
			t.Errorf("workers=%d: %d calls after cancellation", workers, n)
		}
	}
}

// TestMapStolenNegativeInputs: a negative item count errors; width < 1
// behaves as width 1.
func TestMapStolenNegativeInputs(t *testing.T) {
	err := MapStolen(context.Background(), -1, 4, 2,
		func(_ context.Context, start, end int) (int, error) { return 0, nil },
		func(ci, start, end int, v int) error { return nil })
	if err == nil {
		t.Fatal("no error for n = -1")
	}
	var nchunks int
	err = MapStolen(context.Background(), 3, 0, 1,
		func(_ context.Context, start, end int) (int, error) { return 0, nil },
		func(ci, start, end int, v int) error { nchunks++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if nchunks != 3 {
		t.Fatalf("width=0 reduced %d chunks, want 3 (width treated as 1)", nchunks)
	}
}
