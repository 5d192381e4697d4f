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

// Eval is one placement's measured result, as returned by an
// Evaluator.
type Eval struct {
	// WorstP2P is the highest per-core noise of the placement.
	WorstP2P float64
	// WorstCore is the core reading WorstP2P.
	WorstCore int
}

// Evaluator measures a group of placements in one call — e.g. as the
// lanes of one lockstep batch session: given each placement's set of
// cores running the workload (the rest idle), it returns one Eval per
// placement, in order. Each placement's result must be identical to
// evaluating it alone.
type Evaluator func(placements [][]int) ([]Eval, error)

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
// per-core noise). The enumeration is cut into groups of width
// exec.BatchWidth(batch, ...) — the lanes of one lockstep batch
// measurement, one placement per call at batch 1 — and the groups
// spread across `workers` (<= 0 selects one per CPU, 1 runs serially);
// with more than one worker the evaluator must be safe for concurrent
// use. The reduction walks results in enumeration order, so ties
// resolve to the earliest placement and the winners are identical at
// every (workers, batch) combination. Canceling ctx stops the scan
// early.
func BestWorst(ctx context.Context, k, workers, batch int, eval Evaluator) (best, worst Placement, err error) {
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
// ks (the paper sweeps 1..6), each count's placements scheduled as in
// BestWorst.
func Study(ctx context.Context, ks []int, workers, batch int, eval Evaluator) ([]Opportunity, error) {
	out := make([]Opportunity, 0, len(ks))
	for _, k := range ks {
		best, worst, err := BestWorst(ctx, k, workers, batch, eval)
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
