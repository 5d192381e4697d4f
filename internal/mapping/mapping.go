// Package mapping implements the paper's noise-aware workload mapping
// study (Section VII-A, Figures 14 and 15): for a given number of
// identical noisy workloads, enumerate the possible workload-to-core
// placements, evaluate the worst-case per-core noise of each, and
// quantify the gap between the best and worst mapping — the headroom a
// noise-aware scheduler could reclaim.
//
// The package is generic over the noise evaluator so the same
// machinery drives simulated measurements, analytical models or (on
// real hardware) skitter readings.
package mapping

import (
	"context"
	"fmt"

	"voltnoise/internal/analysis"
	"voltnoise/internal/core"
	"voltnoise/internal/exec"
)

// Evaluator measures one placement: given the set of cores running the
// workload (the rest idle), it returns the worst per-core noise
// reading and the core showing it.
type Evaluator func(cores []int) (worstP2P float64, worstCore int, err error)

// Eval is one placement's measured result, as returned by a
// BatchEvaluator.
type Eval struct {
	// WorstP2P is the highest per-core noise of the placement.
	WorstP2P float64
	// WorstCore is the core reading WorstP2P.
	WorstCore int
}

// BatchEvaluator measures a group of placements in one call — e.g. as
// the lanes of one lockstep batch session — returning one Eval per
// placement, in order. Each placement's result must be identical to
// evaluating it alone.
type BatchEvaluator func(placements [][]int) ([]Eval, error)

// batchOf adapts a single-placement evaluator to the batch interface;
// BestWorstBatchN hands it one placement per call at width 1.
func batchOf(eval Evaluator) BatchEvaluator {
	return func(placements [][]int) ([]Eval, error) {
		out := make([]Eval, len(placements))
		for i, cores := range placements {
			w, wc, err := eval(cores)
			if err != nil {
				return nil, err
			}
			out[i] = Eval{WorstP2P: w, WorstCore: wc}
		}
		return out, nil
	}
}

// Placement is one evaluated workload-to-core mapping.
type Placement struct {
	// Cores lists the cores running the workload, ascending.
	Cores []int
	// WorstP2P is the highest per-core noise of this placement.
	WorstP2P float64
	// WorstCore is the core reading WorstP2P.
	WorstCore int
}

// BestWorst enumerates all C(NumCores, k) placements of k workloads
// and returns the quietest and the noisiest placement (by worst-case
// per-core noise). Evaluations run serially; use BestWorstN to fan
// them out.
func BestWorst(k int, eval Evaluator) (best, worst Placement, err error) {
	return BestWorstN(context.Background(), k, 1, eval)
}

// BestWorstN is BestWorst with the placement evaluations spread
// across `workers` concurrent workers (<= 0 selects one per CPU).
// The evaluator must then be safe for concurrent use. The reduction
// is ordered, so ties resolve to the earliest placement in
// enumeration order — the same winners the serial scan picks — under
// every worker count. Canceling ctx stops the scan early.
func BestWorstN(ctx context.Context, k, workers int, eval Evaluator) (best, worst Placement, err error) {
	if eval == nil {
		return best, worst, fmt.Errorf("mapping: nil evaluator")
	}
	return BestWorstBatchN(ctx, k, workers, 1, batchOf(eval))
}

// BestWorstBatchN is BestWorstN over a batch evaluator: the placement
// enumeration is cut into groups of width exec.BatchWidth(batch,
// ...) — the lanes of one lockstep batch measurement — and the groups
// spread across `workers`. batch == 1 evaluates one placement per
// call; the reduction walks results in enumeration
// order either way, so the winners and tie-breaks are identical at
// every (workers, batch) combination.
func BestWorstBatchN(ctx context.Context, k, workers, batch int, eval BatchEvaluator) (best, worst Placement, err error) {
	if k < 1 || k > core.NumCores {
		return best, worst, fmt.Errorf("mapping: %d workloads on %d cores", k, core.NumCores)
	}
	if eval == nil {
		return best, worst, fmt.Errorf("mapping: nil evaluator")
	}
	var placements [][]int
	analysis.Combinations(core.NumCores, k, func(cores []int) {
		placements = append(placements, append([]int{}, cores...))
	})
	width := exec.BatchWidth(batch, len(placements))
	first := true
	err = exec.MapStolen(ctx, len(placements), width, workers,
		func(_ context.Context, start, end int) ([]Eval, error) {
			return eval(placements[start:end])
		},
		func(_, start, end int, evals []Eval) error {
			if len(evals) != end-start {
				return fmt.Errorf("mapping: evaluator returned %d results for %d placements", len(evals), end-start)
			}
			for o, e := range evals {
				p := Placement{Cores: placements[start+o], WorstP2P: e.WorstP2P, WorstCore: e.WorstCore}
				if first {
					best, worst = p, p
					first = false
					continue
				}
				if p.WorstP2P < best.WorstP2P {
					best = p
				}
				if p.WorstP2P > worst.WorstP2P {
					worst = p
				}
			}
			return nil
		})
	if err != nil {
		return Placement{}, Placement{}, err
	}
	return best, worst, nil
}

// Opportunity quantifies the noise-aware mapping headroom for one
// workload count (one x-position of the paper's Figure 15).
type Opportunity struct {
	// Workloads is the number of scheduled noisy workloads.
	Workloads int
	// Best and Worst are the extreme placements.
	Best, Worst Placement
	// GainP2P is Worst.WorstP2P - Best.WorstP2P: the worst-case noise
	// reduction a noise-aware mapper achieves over an adversarial one.
	GainP2P float64
}

// Study evaluates the mapping opportunity for each workload count in
// ks (the paper sweeps 1..6). Evaluations run serially; use StudyN to
// fan them out.
func Study(ks []int, eval Evaluator) ([]Opportunity, error) {
	return StudyN(context.Background(), ks, 1, eval)
}

// StudyN is Study with each count's placement evaluations spread
// across `workers` concurrent workers (the evaluator must then be
// safe for concurrent use).
func StudyN(ctx context.Context, ks []int, workers int, eval Evaluator) ([]Opportunity, error) {
	if eval == nil {
		return nil, fmt.Errorf("mapping: nil evaluator")
	}
	return StudyBatchN(ctx, ks, workers, 1, batchOf(eval))
}

// StudyBatchN is StudyN over a batch evaluator: each count's
// placements pack into lockstep groups of width exec.BatchWidth(batch,
// ...) before fanning out (see BestWorstBatchN).
func StudyBatchN(ctx context.Context, ks []int, workers, batch int, eval BatchEvaluator) ([]Opportunity, error) {
	out := make([]Opportunity, 0, len(ks))
	for _, k := range ks {
		best, worst, err := BestWorstBatchN(ctx, k, workers, batch, eval)
		if err != nil {
			return nil, err
		}
		out = append(out, Opportunity{
			Workloads: k,
			Best:      best,
			Worst:     worst,
			GainP2P:   worst.WorstP2P - best.WorstP2P,
		})
	}
	return out, nil
}
