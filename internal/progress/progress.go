// Package progress carries live partial results out of long-running
// studies. Every parallel experiment in this repository reduces its
// measurements in item order (internal/exec), so the stream of
// reduction steps is itself deterministic: the same study emits the
// same payloads in the same order at every (workers, batch) setting of
// the stolen-chunk scheduler — only the wall-clock spacing changes.
// A Sink taps that ordered reduction; it never observes the racy
// compute side.
//
// Studies accept a Sink through a Progress field: noise.Lab's, the
// vmin/epi/population configs' and stressmark.GeneticConfig's. The
// service layer additionally threads a Sink through the job context
// (NewContext / FromContext) so a Runner implementation can forward
// study progress into the per-job event hub without changing its
// interface.
package progress

import "context"

// Event is one reduction step of a running study.
type Event struct {
	// Chunk is the ordered-reduction chunk index of this step: chunk i
	// is always emitted before chunk i+1, whatever order the workers
	// computed them in.
	Chunk int
	// Done counts chunks reduced so far (including this one).
	Done int
	// Total is the number of chunks the stage will reduce. It is known
	// up front for every study (the chunk list is a pure function of
	// the item count and the batch width); early-exit studies (vmin)
	// may finish with Done < Total.
	Total int
	// Payload is the study-typed partial result of the chunk (e.g.
	// noise.ChunkResult, vmin.StepEvent, epi.ChunkEntries,
	// population.ChipSummary slices). Nil for pure progress ticks.
	Payload any
}

// Sink consumes progress events. Implementations are called
// synchronously from the study's ordered-reduction goroutine: they
// must be fast and must not block, or they stall the reduction. A nil
// Sink is valid and discards everything (use Emit).
type Sink func(Event)

// Emit sends an event through the sink; safe on a nil Sink.
func (s Sink) Emit(e Event) {
	if s != nil {
		s(e)
	}
}

// ctxKey keys the context-carried sink.
type ctxKey struct{}

// NewContext returns a context carrying the sink. The service installs
// the per-job event sink this way so runners forward study progress
// without widening their interface.
func NewContext(ctx context.Context, s Sink) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext extracts the context-carried sink; a context without one
// yields a nil (discard-everything) Sink.
func FromContext(ctx context.Context) Sink {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(Sink)
	return s
}
