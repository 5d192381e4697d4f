package noise

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"voltnoise/internal/analysis"
	"voltnoise/internal/core"
)

// WorkloadKind labels the three workloads of the paper's ΔI study
// (Section V-D): idle, medium dI/dt, and maximum dI/dt.
type WorkloadKind int

const (
	// KindIdle runs nothing on the core.
	KindIdle WorkloadKind = iota
	// KindMedium runs the medium dI/dt stressmark (half the maximum ΔI).
	KindMedium
	// KindMax runs the maximum dI/dt stressmark.
	KindMax
	numKinds
)

func (k WorkloadKind) String() string {
	switch k {
	case KindIdle:
		return "idle"
	case KindMedium:
		return "medium"
	case KindMax:
		return "max"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// MappingRun is one workload-to-core mapping measurement.
type MappingRun struct {
	// Assign[i] is the workload kind on core i.
	Assign [core.NumCores]WorkloadKind
	// P2P is the per-core skitter reading.
	P2P [core.NumCores]float64
	// DeltaIPercent is the mapping's aggregate ΔI as a percentage of
	// the maximum possible (all six cores running the max stressmark).
	DeltaIPercent float64
	// MinVoltage is the deepest droop any core saw during the run.
	MinVoltage float64
}

// Worst returns the maximum per-core reading and its core.
func (r MappingRun) Worst() (float64, int) {
	w, c := r.P2P[0], 0
	for i := 1; i < core.NumCores; i++ {
		if r.P2P[i] > w {
			w, c = r.P2P[i], i
		}
	}
	return w, c
}

// ActiveCores returns the number of non-idle cores.
func (r MappingRun) ActiveCores() int {
	n := 0
	for _, k := range r.Assign {
		if k != KindIdle {
			n++
		}
	}
	return n
}

// Counts returns (#max, #medium) in the mapping — the paper's
// "x-y configuration" notation of Figure 11b.
func (r MappingRun) Counts() (maxN, medN int) {
	for _, k := range r.Assign {
		switch k {
		case KindMax:
			maxN++
		case KindMedium:
			medN++
		}
	}
	return maxN, medN
}

// deltaIPercent computes the ΔI fraction of an assignment: medium
// stressmarks contribute half a maximum stressmark's ΔI.
func deltaIPercent(assign [core.NumCores]WorkloadKind) float64 {
	total := 0.0
	for _, k := range assign {
		switch k {
		case KindMax:
			total += 1
		case KindMedium:
			total += 0.5
		}
	}
	return total / core.NumCores * 100
}

// MappingStudy measures workload-to-core mappings of
// {idle, medium, max} at the given stimulus frequency with
// synchronization enabled (the paper's maximal-noise setting).
//
// With exhaustive=true all 3^6 = 729 assignments run — the complete
// picture behind Figures 11a/11b/13a. With exhaustive=false a reduced
// but still representative set runs: every workload composition
// (#max, #medium) in every distinct rotation, which covers all ΔI
// levels and all cores.
func (l *Lab) MappingStudy(ctx context.Context, freq float64, events int, exhaustive bool) ([]MappingRun, error) {
	var assigns [][core.NumCores]WorkloadKind
	if exhaustive {
		analysis.Assignments(core.NumCores, int(numKinds), func(a []int) {
			var as [core.NumCores]WorkloadKind
			for i, v := range a {
				as[i] = WorkloadKind(v)
			}
			assigns = append(assigns, as)
		})
	} else {
		seen := map[[core.NumCores]WorkloadKind]bool{}
		analysis.Assignments(core.NumCores, int(numKinds), func(a []int) {
			var as [core.NumCores]WorkloadKind
			for i, v := range a {
				as[i] = WorkloadKind(v)
			}
			// Keep canonical assignments: sorted runs and their
			// rotations, so every composition appears on every core
			// at least once.
			if !isSortedRun(a) {
				return
			}
			for r := 0; r < core.NumCores; r++ {
				var rot [core.NumCores]WorkloadKind
				for i := range as {
					rot[i] = as[(i+r)%core.NumCores]
				}
				if !seen[rot] {
					seen[rot] = true
					assigns = append(assigns, rot)
				}
			}
		})
	}
	return l.runMappings(ctx, freq, events, assigns)
}

func isSortedRun(a []int) bool {
	for i := 1; i < len(a); i++ {
		if a[i] > a[i-1] {
			return false
		}
	}
	return true
}

// runMappings measures each assignment: every assignment shares the
// spec's measurement window, so the whole set packs into lockstep
// batch lanes (l.Batch) fanned out across l.Workers. The stressmark
// workloads are pure (Power(t) reads immutable state), so the two
// prototypes are safely shared by every lane and worker.
func (l *Lab) runMappings(ctx context.Context, freq float64, events int, assigns [][core.NumCores]WorkloadKind) ([]MappingRun, error) {
	cfg := l.Platform.Config()
	maxSpec := syncSpec(l.MaxSpec(freq), events)
	medSpec := syncSpec(l.MedSpec(freq), events)
	maxWl, err := maxSpec.Workload(cfg.Core, l.table())
	if err != nil {
		return nil, err
	}
	medWl, err := medSpec.Workload(cfg.Core, l.table())
	if err != nil {
		return nil, err
	}
	start, dur := measureWindow(maxSpec)
	jobs := make([]measJob, len(assigns))
	for j, assign := range assigns {
		var wl [core.NumCores]core.Workload
		for i, k := range assign {
			switch k {
			case KindMax:
				wl[i] = maxWl
			case KindMedium:
				wl[i] = medWl
			}
		}
		jobs[j] = measJob{wl: wl, start: start, dur: dur}
	}
	ms, err := l.runMeasurements(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]MappingRun, len(assigns))
	for j, m := range ms {
		out[j] = MappingRun{
			Assign:        assigns[j],
			P2P:           m.P2P,
			DeltaIPercent: deltaIPercent(assigns[j]),
			MinVoltage:    m.MinVoltage(),
		}
	}
	return out, nil
}

// DeltaIPoint is one point of the Figure 11a scatter: for a given ΔI
// percentage and core, the maximum noise across all mappings
// generating that ΔI.
type DeltaIPoint struct {
	DeltaIPercent float64
	Core          int
	MaxP2P        float64
	// MinActiveCores is the smallest number of active cores among the
	// mappings realizing this maximum (Figure 11a's dotted regions).
	MinActiveCores int
}

// WorstDroops condenses a mapping study into the droop table of the
// paper's Section VII-B: element n is the deepest droop, in percent of
// vnom, of any run with n active cores (zero where no run has n).
func WorstDroops(runs []MappingRun, vnom float64) [core.NumCores + 1]float64 {
	var worst [core.NumCores + 1]float64
	for _, r := range runs {
		n := r.ActiveCores()
		if pct := (vnom - r.MinVoltage) / vnom * 100; pct > worst[n] {
			worst[n] = pct
		}
	}
	return worst
}

// DeltaISensitivity condenses a mapping study into Figure 11a: noise
// versus ΔI.
func DeltaISensitivity(runs []MappingRun) []DeltaIPoint {
	type key struct {
		pct  int // percent x10 to avoid float keys
		core int
	}
	best := map[key]DeltaIPoint{}
	for _, r := range runs {
		for c := 0; c < core.NumCores; c++ {
			k := key{pct: int(r.DeltaIPercent*10 + 0.5), core: c}
			p, ok := best[k]
			if !ok || r.P2P[c] > p.MaxP2P {
				best[k] = DeltaIPoint{
					DeltaIPercent:  r.DeltaIPercent,
					Core:           c,
					MaxP2P:         r.P2P[c],
					MinActiveCores: r.ActiveCores(),
				}
			} else if r.P2P[c] == p.MaxP2P && r.ActiveCores() < p.MinActiveCores {
				p.MinActiveCores = r.ActiveCores()
				best[k] = p
			}
		}
	}
	out := make([]DeltaIPoint, 0, len(best))
	for _, p := range best {
		out = append(out, p)
	}
	slices.SortStableFunc(out, func(a, b DeltaIPoint) int {
		if c := cmp.Compare(a.DeltaIPercent, b.DeltaIPercent); c != 0 {
			return c
		}
		return cmp.Compare(a.Core, b.Core)
	})
	return out
}

// DistributionPoint is one workload distribution of Figure 11b: the
// average noise across cores and mappings for a given (#max, #medium)
// composition.
type DistributionPoint struct {
	MaxMarks, MediumMarks int
	DeltaIPercent         float64
	AvgP2P                float64
	Mappings              int
}

// DistributionAnalysis condenses a mapping study into Figure 11b:
// noise by workload distribution.
func DistributionAnalysis(runs []MappingRun) []DistributionPoint {
	type key struct{ maxN, medN int }
	agg := map[key]*DistributionPoint{}
	for _, r := range runs {
		maxN, medN := r.Counts()
		k := key{maxN, medN}
		p := agg[k]
		if p == nil {
			p = &DistributionPoint{MaxMarks: maxN, MediumMarks: medN, DeltaIPercent: r.DeltaIPercent}
			agg[k] = p
		}
		for c := 0; c < core.NumCores; c++ {
			p.AvgP2P += r.P2P[c]
		}
		p.Mappings++
	}
	out := make([]DistributionPoint, 0, len(agg))
	for _, p := range agg {
		p.AvgP2P /= float64(p.Mappings * core.NumCores)
		out = append(out, *p)
	}
	// Sort by ΔI then by #max for stable presentation.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].DeltaIPercent < out[j-1].DeltaIPercent ||
			(out[j].DeltaIPercent == out[j-1].DeltaIPercent && out[j].MaxMarks < out[j-1].MaxMarks)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// CorrelationStudy computes the inter-core noise correlation matrix
// over a mapping study (Figure 13a) and the two core clusters it
// reveals.
func CorrelationStudy(runs []MappingRun) (matrix [][]float64, clusters [][]int) {
	samples := make([][]float64, len(runs))
	for i, r := range runs {
		row := make([]float64, core.NumCores)
		copy(row, r.P2P[:])
		samples[i] = row
	}
	matrix = analysis.CorrelationMatrix(samples)
	clusters = analysis.Cluster(matrix, 2)
	return matrix, clusters
}
