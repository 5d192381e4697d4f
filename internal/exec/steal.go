package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// partitionChunks cuts a chunk list into `workers` contiguous,
// near-equal queues, in order (the leading queues take the remainder).
// Concatenating the queues yields the chunk list again, so for the
// chunks of Chunks(n, width) every index of [0, n) is covered exactly
// once: n == 0 yields empty queues, n < width yields one chunk, and
// workers beyond the chunk count leave the trailing queues empty.
//
// The partition is the initial ownership map of MapStolen's
// work-stealing schedule: each worker drains its own queue from the
// front and steals from the back of the fullest remaining queue when
// its own runs dry.
func partitionChunks(chunks [][2]int, workers int) [][][2]int {
	if workers < 1 {
		workers = 1
	}
	queues := make([][][2]int, workers)
	nc := len(chunks)
	per, rem := nc/workers, nc%workers
	pos := 0
	for w := 0; w < workers; w++ {
		take := per
		if w < rem {
			take++
		}
		queues[w] = chunks[pos : pos+take : pos+take]
		pos += take
	}
	return queues
}

// stealQueues is the shared scheduling state of one MapStolen run: the
// per-worker chunk queues of partitionChunks, drained under one mutex.
// Chunks are coarse units (a whole lockstep batch each), so the lock
// is touched a handful of times per batch of work and contention is
// negligible next to the chunk bodies.
type stealQueues struct {
	mu     sync.Mutex
	queues [][][2]int // queues[w] is worker w's remaining chunks
	base   []int      // global index of queues[w][0] within the chunk list
}

// next hands worker w its next chunk: the front of its own queue, or —
// when that queue is empty — the back of the fullest other queue (the
// classic steal end, so owners keep streaming forward through their
// contiguous runs). The second return is the chunk's global index; ok
// reports whether any work remained.
func (s *stealQueues) next(w int) (chunk [2]int, ci int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[w]; len(q) > 0 {
		chunk, ci = q[0], s.base[w]
		s.queues[w] = q[1:]
		s.base[w]++
		return chunk, ci, true
	}
	victim, most := -1, 0
	for v := range s.queues {
		if l := len(s.queues[v]); l > most {
			victim, most = v, l
		}
	}
	if victim < 0 {
		return chunk, 0, false
	}
	q := s.queues[victim]
	chunk, ci = q[len(q)-1], s.base[victim]+len(q)-1
	s.queues[victim] = q[:len(q)-1]
	return chunk, ci, true
}

// MapStolen runs fn over the width-sized chunks of [0, n) on up to
// `workers` concurrent workers with work stealing, streaming each
// chunk's result to `each` strictly in chunk order. It is the
// batch-session scheduling primitive: a chunk is one whole lockstep
// batch, each worker owns a contiguous run of chunks (partitionChunks),
// and a worker whose run is exhausted steals whole chunks from the
// fullest remaining queue instead of splitting lanes.
//
// fn(start, end) must depend only on the chunk bounds. Reduction is
// ordered: chunk i is always reduced before chunk i+1, whatever order
// or worker produced them, and `each` runs on the calling goroutine
// and needs no locking. ErrStop from `each` cancels outstanding chunks
// and returns nil — a deterministic early exit, because the chunks
// reduced before the stop are the same under any worker count. Any
// other error cancels the run and is returned; among fn errors the
// lowest-index failure wins. The schedule — which worker runs which
// chunk when — is the only thing the worker count changes.
//
// workers <= 0 selects DefaultWorkers; one worker (or a single chunk)
// runs serially on the calling goroutine. width < 1 is treated as 1.
func MapStolen[T any](ctx context.Context, n, width, workers int, fn func(ctx context.Context, start, end int) (T, error), each func(ci, start, end int, v T) error) error {
	if n < 0 {
		return fmt.Errorf("exec: negative item count %d", n)
	}
	if width < 1 {
		width = 1
	}
	chunks := Chunks(n, width)
	nc := len(chunks)
	if nc == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Clamp(workers, nc)
	wrap := func(ctx context.Context, ci int) (T, error) {
		return fn(ctx, chunks[ci][0], chunks[ci][1])
	}
	reduce := func(ci int, v T) error {
		return each(ci, chunks[ci][0], chunks[ci][1], v)
	}
	if workers == 1 {
		return mapSerial(ctx, nc, wrap, reduce)
	}
	return mapStolenParallel(ctx, chunks, workers, wrap, reduce)
}

// mapStolenParallel runs the chunks on `workers` goroutines that draw
// from the partitionChunks ownership map, and reduces their results in
// chunk order on the calling goroutine.
func mapStolenParallel[T any](ctx context.Context, chunks [][2]int, workers int, fn func(ctx context.Context, ci int) (T, error), each func(ci int, v T) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	nc := len(chunks)
	sq := &stealQueues{queues: partitionChunks(chunks, workers), base: make([]int, workers)}
	pos := 0
	for w := range sq.queues {
		sq.base[w] = pos
		pos += len(sq.queues[w])
	}

	type item struct {
		ci  int
		v   T
		err error
	}
	// Buffered to nc so workers never block on a departed coordinator.
	results := make(chan item, nc)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for {
				_, ci, ok := sq.next(w)
				if !ok {
					return
				}
				if err := cctx.Err(); err != nil {
					results <- item{ci: ci, err: err}
					continue
				}
				v, err := call(cctx, ci, fn)
				results <- item{ci: ci, v: v, err: err}
			}
		}(w)
	}

	// Ordered reduction: hold out-of-order arrivals until their turn.
	buf := make([]item, nc)
	have := make([]bool, nc)
	done := 0
	for received := 0; received < nc && done < nc; received++ {
		it := <-results
		buf[it.ci], have[it.ci] = it, true
		for done < nc && have[done] {
			it := buf[done]
			done++
			if it.err != nil {
				cancel()
				return it.err
			}
			if err := each(it.ci, it.v); err != nil {
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
