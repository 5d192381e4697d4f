// Package exec is the deterministic worker-pool engine behind every
// parallel experiment in the repository. The paper's characterization
// campaign is embarrassingly parallel — frequency sweeps, mapping
// enumerations, per-instruction EPI profiling, Vmin step grids — and
// this package lets each study fan its independent measurement runs
// across CPUs while keeping the results bit-identical to the serial
// path:
//
//   - Map returns results in item order, regardless of which worker
//     finished which item when, so downstream reductions see exactly
//     the ordering a serial loop would have produced (no
//     accumulation-order drift).
//   - MapOrdered streams results to a reduction callback strictly in
//     item order, which also makes early-exit semantics (Vmin's
//     "stop at first failure") reproducible under any worker count.
//   - When several items fail, the error of the lowest-index item
//     wins — the same error a serial loop would have returned first.
//
// Worker panics are recovered and surfaced as *PanicError values so a
// single bad measurement cannot crash a long campaign, and context
// cancellation aborts outstanding items promptly.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
)

// DefaultWorkers is the worker count selected by workers <= 0:
// one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Clamp resolves a workers knob against an item count: non-positive
// selects DefaultWorkers, and the result never exceeds n (there is no
// point spawning idle workers) nor drops below 1.
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// DefaultBatchWidth is the lane width selected by batch == 0: wide
// enough that the lockstep engine's multi-RHS solve amortizes the
// per-step costs, narrow enough that lane state stays cache-resident.
const DefaultBatchWidth = 8

// BatchWidth resolves a batch knob against an item count, following
// the workers convention: batch <= 0 selects DefaultBatchWidth,
// batch == 1 forces lane-per-run (a width-1 batch per item), and the
// result never exceeds n. The width is deliberately independent of the
// worker count: lanes are never split to feed idle workers, because a
// full-width lockstep batch amortizes the per-step solve far better
// than an extra goroutine does — workers instead contend for whole
// chunks through MapStolen.
func BatchWidth(batch, n int) int {
	if n < 1 || batch == 1 {
		return 1
	}
	if batch <= 0 {
		batch = DefaultBatchWidth
	}
	if batch > n {
		batch = n
	}
	if batch < 1 {
		batch = 1
	}
	return batch
}

// BatchWidthAuto resolves a batch knob like BatchWidth but lets a
// calibrated width stand in for the static default: batch <= 0 invokes
// auto — typically core.SessionPool.AutoBatchWidth, passed as a method
// value — and uses its result instead of DefaultBatchWidth (a result
// below 1 falls back to the default). auto runs only when its answer
// matters: an explicit batch, a single item, or a nil auto skip the
// call, so studies with pinned widths never pay for calibration.
// Lane results are bit-identical at every width, so the choice moves
// only wall-clock time, never output.
func BatchWidthAuto(batch, n int, auto func() int) int {
	if batch <= 0 && n > 1 && auto != nil {
		if w := auto(); w >= 1 {
			batch = w
		}
	}
	return BatchWidth(batch, n)
}

// Chunks splits [0, n) into consecutive [start, end) ranges of at most
// `width` items, in order — the lane packing used by batched studies.
func Chunks(n, width int) [][2]int {
	if n <= 0 || width < 1 {
		return nil
	}
	out := make([][2]int, 0, (n+width-1)/width)
	for start := 0; start < n; start += width {
		end := start + width
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// NumChunks reports how many ranges Chunks(n, width) yields without
// materializing them — the Total a streaming study advertises before
// its first chunk reduces.
func NumChunks(n, width int) int {
	if n <= 0 {
		return 0
	}
	if width < 1 {
		width = 1
	}
	return (n + width - 1) / width
}

// ErrStop is returned by a MapOrdered reduction callback to stop
// consuming items: outstanding work is cancelled and MapOrdered
// returns nil.
var ErrStop = errors.New("exec: stop")

// PanicError reports a panic recovered inside a worker, converted to
// an ordinary error so one faulty item aborts the study instead of
// the process.
type PanicError struct {
	// Index is the item whose function panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: panic on item %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map runs fn(ctx, i) for every i in [0, n) on up to `workers`
// concurrent workers and returns the results in item order.
// workers <= 0 selects DefaultWorkers; workers == 1 runs serially on
// the calling goroutine. The output is bit-identical for every worker
// count: out[i] depends only on fn and i, never on scheduling. On
// error the lowest-index failure is returned and the remaining items
// are cancelled.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative item count %d", n)
	}
	out := make([]T, n)
	err := MapOrdered(ctx, n, workers, fn, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ForEach is Map for functions with no result.
func ForEach(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	_, err := Map(ctx, n, workers, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// MapOrdered runs fn across workers like Map but streams each result
// to `each` strictly in item order (item i is always reduced before
// item i+1, whatever order the workers finished in). `each` runs on
// the calling goroutine and needs no locking. Returning ErrStop from
// `each` cancels outstanding items and makes MapOrdered return nil —
// a deterministic early exit: because reduction is ordered, the items
// that were reduced before the stop are the same under any worker
// count. Any other error from `each` or fn cancels the run and is
// returned (fn errors resolve to the lowest failing index).
func MapOrdered[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error), each func(i int, v T) error) error {
	if n < 0 {
		return fmt.Errorf("exec: negative item count %d", n)
	}
	if n == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if Clamp(workers, n) == 1 {
		return mapSerial(ctx, n, fn, each)
	}
	return mapParallel(ctx, n, Clamp(workers, n), fn, each)
}

// call invokes fn with panic containment.
func call[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i)
}

func mapSerial[T any](ctx context.Context, n int, fn func(ctx context.Context, i int) (T, error), each func(i int, v T) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := call(ctx, i, fn)
		if err != nil {
			return err
		}
		if err := each(i, v); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

func mapParallel[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error), each func(i int, v T) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type item struct {
		i   int
		v   T
		err error
	}
	// Buffered to n so workers never block on a departed coordinator:
	// after an early return every in-flight worker can still deliver
	// its item and exit.
	results := make(chan item, n)
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := cctx.Err(); err != nil {
					results <- item{i: i, err: err}
					continue
				}
				v, err := call(cctx, i, fn)
				results <- item{i: i, v: v, err: err}
			}
		}()
	}

	// Ordered reduction: hold out-of-order arrivals until their turn.
	buf := make([]item, n)
	have := make([]bool, n)
	done := 0
	for received := 0; received < n && done < n; received++ {
		it := <-results
		buf[it.i], have[it.i] = it, true
		for done < n && have[done] {
			it := buf[done]
			done++
			if it.err != nil {
				cancel()
				return it.err
			}
			if err := each(it.i, it.v); err != nil {
				cancel()
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}
