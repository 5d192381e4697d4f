// Package mapping implements the paper's noise-aware workload mapping
// study (Section VII-A, Figures 14 and 15): for a given number of
// identical noisy workloads, enumerate the possible workload-to-core
// placements and, once each placement's worst-case per-core noise is
// measured, quantify the gap between the best and worst mapping — the
// headroom a noise-aware scheduler could reclaim.
//
// The package holds only the study's enumeration and its fold; the
// measurements are taken elsewhere (noise.Lab.MappingOpportunity runs
// them on the simulated platform).
package mapping

import (
	"fmt"

	"voltnoise/internal/analysis"
	"voltnoise/internal/core"
)

// Placement is one evaluated workload-to-core mapping.
type Placement struct {
	// Cores lists the cores running the workload, ascending.
	Cores []int
	// WorstP2P is the highest per-core noise of this placement.
	WorstP2P float64
	// WorstCore is the core reading WorstP2P.
	WorstCore int
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

// Placements returns the C(NumCores, k) placements of k workloads:
// each an ascending list of the cores running one, in lexicographic
// order.
func Placements(k int) ([][]int, error) {
	if k < 1 || k > core.NumCores {
		return nil, fmt.Errorf("mapping: %d workloads on %d cores", k, core.NumCores)
	}
	var out [][]int
	analysis.Combinations(core.NumCores, k, func(cores []int) {
		out = append(out, append([]int{}, cores...))
	})
	return out, nil
}

// Fold reduces the measured placements of k workloads, in Placements'
// order, to the quietest and the noisiest placement by worst-case
// per-core noise. It walks them in that order, so ties go to the
// earliest placement.
func Fold(k int, measured []Placement) Opportunity {
	op := Opportunity{Workloads: k}
	for i, p := range measured {
		if i == 0 || p.WorstP2P < op.Best.WorstP2P {
			op.Best = p
		}
		if i == 0 || p.WorstP2P > op.Worst.WorstP2P {
			op.Worst = p
		}
	}
	op.GainP2P = op.Worst.WorstP2P - op.Best.WorstP2P
	return op
}
