package noise

import (
	"context"

	"voltnoise/internal/mapping"
)

// MappingOpportunity runs the paper's Figure 15 study: the best/worst
// placement gap for each workload count in ks. Every placement of
// every count — synchronized maximum dI/dt stressmarks on its cores,
// the rest idle — is one job of a single runMeasurements call, and
// mapping.Fold reduces each count's placements. Every count is
// validated before anything is measured.
func (l *Lab) MappingOpportunity(ctx context.Context, freq float64, events int, ks []int) ([]mapping.Opportunity, error) {
	spec := syncSpec(l.MaxSpec(freq), events)
	wl, err := spec.Workload(l.Platform.Config().Core, l.table())
	if err != nil {
		return nil, err
	}
	start, dur := measureWindow(spec)
	placements := make([][][]int, len(ks))
	var jobs []measJob
	for i, k := range ks {
		ps, err := mapping.Placements(k)
		if err != nil {
			return nil, err
		}
		placements[i] = ps
		for _, cores := range ps {
			j := measJob{start: start, dur: dur}
			for _, c := range cores {
				j.wl[c] = wl
			}
			jobs = append(jobs, j)
		}
	}
	ms, err := l.runMeasurements(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]mapping.Opportunity, len(ks))
	for i, ps := range placements {
		measured := make([]mapping.Placement, len(ps))
		for p, cores := range ps {
			w, wc := ms[p].WorstP2P()
			measured[p] = mapping.Placement{Cores: cores, WorstP2P: w, WorstCore: wc}
		}
		ms = ms[len(ps):]
		out[i] = mapping.Fold(ks[i], measured)
	}
	return out, nil
}
