package noise

import (
	"context"

	"voltnoise/internal/core"
	"voltnoise/internal/mapping"
	"voltnoise/internal/pdn"
)

// PlacementBatchEvaluator returns a mapping.Evaluator that measures
// placements of synchronized maximum dI/dt stressmarks on the
// platform — the workload-to-core mapping experiments of the paper's
// Figures 14 and 15 — a whole group at a time, as the lanes of one
// pooled batch session. Each lane's result is bit-identical to
// evaluating the placement alone, so mapping.BestWorst picks the same
// winners at every batch width. The evaluator is safe for concurrent
// use (each call holds its own pooled session) and captures ctx:
// canceling it interrupts any in-flight measurement.
func (l *Lab) PlacementBatchEvaluator(ctx context.Context, freq float64, events int) mapping.Evaluator {
	cfg := l.Platform.Config()
	spec := syncSpec(l.MaxSpec(freq), events)
	wlProto, protoErr := spec.Workload(cfg.Core, l.table())
	start, dur := measureWindow(spec)
	return func(placements [][]int) ([]mapping.Eval, error) {
		if protoErr != nil {
			return nil, protoErr
		}
		specs := make([]core.RunSpec, len(placements))
		for i, cores := range placements {
			var wl [core.NumCores]core.Workload
			for _, c := range cores {
				wl[c] = wlProto
			}
			specs[i] = core.RunSpec{Workloads: wl, Start: start, Duration: dur}
		}
		ms, err := l.runBatch(ctx, specs)
		if err != nil {
			return nil, err
		}
		out := make([]mapping.Eval, len(ms))
		for i, m := range ms {
			w, wc := m.WorstP2P()
			out[i] = mapping.Eval{WorstP2P: w, WorstCore: wc}
		}
		return out, nil
	}
}

// MappingOpportunity runs the paper's Figure 15 study: the best/worst
// placement gap for each workload count in ks, with the placement
// measurements packed into lockstep lanes (l.Batch, auto resolved to
// pdn.AutoBatchLanes) and fanned out across l.Workers.
func (l *Lab) MappingOpportunity(ctx context.Context, freq float64, events int, ks []int) ([]mapping.Opportunity, error) {
	return mapping.Study(ctx, ks, l.Workers, l.resolveBatch(), l.PlacementBatchEvaluator(ctx, freq, events))
}

// resolveBatch resolves the Lab's batch knob for callees that take a
// concrete width (the mapping study): auto (0) becomes
// pdn.AutoBatchLanes, explicit settings pass through.
func (l *Lab) resolveBatch() int {
	if l.Batch > 0 {
		return l.Batch
	}
	return pdn.AutoBatchLanes()
}
