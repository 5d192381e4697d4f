package scheduler

import (
	"testing"

	"voltnoise/internal/core"
)

// clusterModel: 20 base noise; within a cluster +4 for immediate row
// neighbours and +2 otherwise; +1 across clusters — the adjacency
// structure the paper's propagation study measures (core 2 of its
// Figure 14 is amplified by sitting between two noisy cores).
func clusterModel() *PairwiseModel {
	m := &PairwiseModel{}
	for i := 0; i < core.NumCores; i++ {
		m.Base[i] = 20
		for j := 0; j < core.NumCores; j++ {
			if i == j {
				continue
			}
			switch {
			case i%2 == j%2 && abs(i-j) == 2:
				m.Coupling[i][j] = 4
			case i%2 == j%2:
				m.Coupling[i][j] = 2
			default:
				m.Coupling[i][j] = 1
			}
		}
	}
	return m
}

// burstTrace: three jobs arrive, hold, then leave; then five jobs.
func burstTrace() []Event {
	return []Event{
		{Time: 0, Arrive: true, Job: 1},
		{Time: 1, Arrive: true, Job: 2},
		{Time: 2, Arrive: true, Job: 3},
		{Time: 10, Arrive: false, Job: 1},
		{Time: 10, Arrive: false, Job: 2},
		{Time: 10, Arrive: false, Job: 3},
		{Time: 11, Arrive: true, Job: 4},
		{Time: 12, Arrive: true, Job: 5},
		{Time: 13, Arrive: true, Job: 6},
		{Time: 14, Arrive: true, Job: 7},
		{Time: 25, Arrive: false, Job: 4},
		{Time: 25, Arrive: false, Job: 5},
		{Time: 25, Arrive: false, Job: 6},
		{Time: 25, Arrive: false, Job: 7},
	}
}

func TestPoliciesPlaceOnFreeCores(t *testing.T) {
	for _, p := range []Policy{FirstFit(), RoundRobin(), NoiseAware()} {
		var busy [core.NumCores]bool
		seen := map[int]bool{}
		for i := 0; i < core.NumCores; i++ {
			c, err := p.Place(busy)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if busy[c] {
				t.Fatalf("%s placed on busy core %d", p.Name(), c)
			}
			busy[c] = true
			seen[c] = true
		}
		if len(seen) != core.NumCores {
			t.Errorf("%s did not cover all cores: %v", p.Name(), seen)
		}
		if _, err := p.Place(busy); err == nil {
			t.Errorf("%s placed on a full machine", p.Name())
		}
	}
}

func TestNoiseAwareSpreadsClusters(t *testing.T) {
	p := NoiseAware()
	var busy [core.NumCores]bool
	// First three placements must land in alternating clusters.
	var clusters [2]int
	for i := 0; i < 3; i++ {
		c, err := p.Place(busy)
		if err != nil {
			t.Fatal(err)
		}
		busy[c] = true
		clusters[c%2]++
	}
	if clusters[0] == 3 || clusters[1] == 3 {
		t.Errorf("noise-aware packed one cluster: %v", clusters)
	}
}

func TestFirstFitPacksOneCluster(t *testing.T) {
	// The naive policy fills 0,1,2 — two of which share a cluster and
	// are row neighbours.
	p := FirstFit()
	var busy [core.NumCores]bool
	var got []int
	for i := 0; i < 3; i++ {
		c, _ := p.Place(busy)
		busy[c] = true
		got = append(got, c)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("first-fit order %v", got)
	}
}

func TestPairwiseModelWorstNoise(t *testing.T) {
	m := clusterModel()
	var none [core.NumCores]bool
	if got := m.WorstNoise(none); got != 0 {
		t.Errorf("empty machine noise %g", got)
	}
	var one [core.NumCores]bool
	one[2] = true
	if got := m.WorstNoise(one); got != 20 {
		t.Errorf("single job noise %g", got)
	}
	// Adjacent same-cluster pair: 20 + 4; cross-cluster pair: 20 + 1.
	var pairSame, pairCross [core.NumCores]bool
	pairSame[0], pairSame[2] = true, true
	pairCross[0], pairCross[1] = true, true
	if got := m.WorstNoise(pairSame); got != 24 {
		t.Errorf("same-cluster pair %g", got)
	}
	// Far same-cluster pair: 20 + 2.
	var pairFar [core.NumCores]bool
	pairFar[0], pairFar[4] = true, true
	if got := m.WorstNoise(pairFar); got != 22 {
		t.Errorf("far same-cluster pair %g", got)
	}
	if got := m.WorstNoise(pairCross); got != 21 {
		t.Errorf("cross-cluster pair %g", got)
	}
}

func TestRunComparesPolicies(t *testing.T) {
	model := clusterModel()
	results, err := Compare([]Policy{FirstFit(), NoiseAware()}, model, burstTrace())
	if err != nil {
		t.Fatal(err)
	}
	ff, na := results[0], results[1]
	if na.PeakNoise >= ff.PeakNoise {
		t.Errorf("noise-aware peak %g not below first-fit %g", na.PeakNoise, ff.PeakNoise)
	}
	if na.MeanNoise >= ff.MeanNoise {
		t.Errorf("noise-aware mean %g not below first-fit %g", na.MeanNoise, ff.MeanNoise)
	}
	if len(ff.Placements) != 7 {
		t.Errorf("first-fit placed %d jobs", len(ff.Placements))
	}
}

func TestRunValidation(t *testing.T) {
	model := clusterModel()
	if _, err := Run(nil, model, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Run(FirstFit(), nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	unsorted := []Event{{Time: 2, Arrive: true, Job: 1}, {Time: 1, Arrive: true, Job: 2}}
	if _, err := Run(FirstFit(), model, unsorted); err == nil {
		t.Error("unsorted trace accepted")
	}
	dup := []Event{{Time: 0, Arrive: true, Job: 1}, {Time: 1, Arrive: true, Job: 1}}
	if _, err := Run(FirstFit(), model, dup); err == nil {
		t.Error("duplicate arrival accepted")
	}
	ghost := []Event{{Time: 0, Arrive: false, Job: 9}}
	if _, err := Run(FirstFit(), model, ghost); err == nil {
		t.Error("ghost departure accepted")
	}
	var over []Event
	for j := 0; j < 7; j++ {
		over = append(over, Event{Time: float64(j), Arrive: true, Job: j})
	}
	if _, err := Run(FirstFit(), model, over); err == nil {
		t.Error("7 concurrent jobs accepted on 6 cores")
	}
}

func TestFitPairwise(t *testing.T) {
	truth := clusterModel()
	eval := func(cores []int) (float64, error) {
		var busy [core.NumCores]bool
		for _, c := range cores {
			busy[c] = true
		}
		return truth.WorstNoise(busy), nil
	}
	fitted, err := FitPairwise(1, eval)
	if err != nil {
		t.Fatal(err)
	}
	// The fit recovers bases exactly and couplings for pairs.
	for i := 0; i < core.NumCores; i++ {
		if fitted.Base[i] != truth.Base[i] {
			t.Errorf("base[%d] = %g", i, fitted.Base[i])
		}
		for j := 0; j < core.NumCores; j++ {
			if i == j {
				continue
			}
			if fitted.Coupling[i][j] != truth.Coupling[i][j] {
				t.Errorf("coupling[%d][%d] = %g, want %g", i, j, fitted.Coupling[i][j], truth.Coupling[i][j])
			}
		}
	}
}
