// Package exec is the deterministic worker-pool engine behind every
// parallel experiment in the repository. The paper's characterization
// campaign is embarrassingly parallel — frequency sweeps, mapping
// enumerations, per-instruction EPI profiling, Vmin step grids — and
// this package lets each study fan its independent measurement runs
// across CPUs while keeping the results bit-identical to the serial
// path:
//
//   - MapStolen cuts the items into chunks, lets idle workers steal
//     whole chunks, and streams each chunk's result to a reduction
//     callback strictly in chunk order, so downstream reductions see
//     exactly the ordering a serial loop would have produced (no
//     accumulation-order drift) and early exits (Vmin's "stop at
//     first failure", via ErrStop) are reproducible under any worker
//     count.
//   - Map is MapStolen with one item per chunk, collecting the
//     results in item order.
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
// result never exceeds n. The width is independent of the worker
// count — only BatchWidthAuto splits lanes, and only for otherwise
// idle workers — because a full-width lockstep batch amortizes the
// per-step solve far better than an extra goroutine does; workers
// instead contend for whole chunks through MapStolen.
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

// BatchWidthAuto resolves a batch knob like BatchWidth but lets the
// auto lane width (typically pdn.AutoBatchLanes) stand in for the
// static default: batch <= 0 resolves auto itself through BatchWidth,
// so an auto below 1 still means DefaultBatchWidth. The auto width is
// split only when it would leave a worker idle: if cutting n items at that
// width gives fewer batches than Clamp(workers, n), the width drops to
// ceil(n / Clamp(workers, n)) so every worker gets a batch. Measured
// on a 2-vCPU x86-64 host with 2 workers, 16 runs as one 16-lane batch
// took 306-351 ms against 202-222 ms as two 8-lane batches, and 2 runs
// as one width-2 batch took 118-122 ms against 44 ms as two width-1
// runs in parallel. Once every worker has a batch, balancing them does
// not pay: a 24-chip, one-bin population study on the same host took
// 15.7 ms as 12+12 lanes against 12.2 ms as 16+8 (medians of 10
// pairs), because 12 is off the register-blocked widths 4, 8 and 16
// and takes the generic kernel. An explicit batch is never split. The result is a
// pure function of the arguments, and lane results are bit-identical
// at every width, so the choice moves only wall-clock time, never
// output.
func BatchWidthAuto(batch, n, workers, auto int) int {
	if batch > 0 || n <= 1 {
		return BatchWidth(batch, n)
	}
	width := BatchWidth(auto, n)
	if w := Clamp(workers, n); (n+width-1)/width < w {
		width = (n + w - 1) / w
	}
	return width
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

// ErrStop is returned by a MapStolen reduction callback to stop
// consuming chunks: outstanding work is cancelled and MapStolen
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
// concurrent workers and returns the results in item order. It is
// MapStolen with one item per chunk: workers <= 0 selects
// DefaultWorkers, one worker runs serially on the calling goroutine,
// and out[i] depends only on fn and i, never on scheduling. On error
// the lowest-index failure is returned and the remaining items are
// cancelled.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative item count %d", n)
	}
	out := make([]T, n)
	err := MapStolen(ctx, n, 1, workers,
		func(ctx context.Context, i, _ int) (T, error) { return fn(ctx, i) },
		func(i, _, _ int, v T) error {
			out[i] = v
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
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
