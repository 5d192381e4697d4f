// Package scheduler realizes the paper's Section VII-A proposal as a
// runnable system: "one can implement a task mapping policy with the
// objective of minimizing the worst-case noise". It provides an
// event-driven multi-core scheduler simulation in which noisy jobs
// arrive and depart, and compares placement policies — naive
// first-fit, round-robin, and the noise-aware policy built on the
// platform's measured inter-core noise relations — by the worst-case
// noise each policy exposes over the run.
package scheduler

import (
	"context"
	"fmt"
	"sort"

	"voltnoise/internal/core"
	"voltnoise/internal/exec"
	"voltnoise/internal/pdn"
)

// Policy decides where an arriving job goes.
type Policy interface {
	// Place returns the core for a new job given the currently busy
	// cores. The returned core must be free.
	Place(busy [core.NumCores]bool) (int, error)
	// Name identifies the policy in results.
	Name() string
}

// Event is one arrival or departure in a job trace.
type Event struct {
	// Time orders events; equal times process in slice order.
	Time float64
	// Arrive indicates an arrival; otherwise the job departs.
	Arrive bool
	// Job identifies the job (departures must reference an earlier
	// arrival).
	Job int
}

// firstFit fills the lowest-numbered free core — the naive policy.
type firstFit struct{}

// FirstFit returns the naive lowest-free-core policy.
func FirstFit() Policy { return firstFit{} }

func (firstFit) Name() string { return "first-fit" }

func (firstFit) Place(busy [core.NumCores]bool) (int, error) {
	for i, b := range busy {
		if !b {
			return i, nil
		}
	}
	return 0, fmt.Errorf("scheduler: no free core")
}

// roundRobin cycles through the cores.
type roundRobin struct{ next int }

// RoundRobin returns a rotating placement policy.
func RoundRobin() Policy { return &roundRobin{} }

func (*roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Place(busy [core.NumCores]bool) (int, error) {
	for i := 0; i < core.NumCores; i++ {
		c := (r.next + i) % core.NumCores
		if !busy[c] {
			r.next = (c + 1) % core.NumCores
			return c, nil
		}
	}
	return 0, fmt.Errorf("scheduler: no free core")
}

// noiseAware spreads jobs across the chip's layout clusters and, within
// a cluster, picks the core with the fewest busy neighbours — the
// placement heuristic the paper's propagation study (Section VI)
// motivates: same-cluster co-location amplifies worst-case noise.
type noiseAware struct{}

// NoiseAware returns the cluster-spreading policy.
func NoiseAware() Policy { return noiseAware{} }

func (noiseAware) Name() string { return "noise-aware" }

func (noiseAware) Place(busy [core.NumCores]bool) (int, error) {
	best, bestScore := -1, 1<<30
	for c := 0; c < core.NumCores; c++ {
		if busy[c] {
			continue
		}
		// Score = busy cores sharing c's voltage domain, weighted
		// double for immediate row neighbours.
		score := 0
		for _, m := range pdn.ClusterOf(c) {
			if m != c && busy[m] {
				score += 2
				if abs(m-c) == 2 { // immediate row neighbour
					score++
				}
			}
		}
		if score < bestScore {
			best, bestScore = c, score
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("scheduler: no free core")
	}
	return best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// NoiseModel scores a placement set's worst-case noise. Implementations
// range from the measured platform (expensive, exact) to a fitted
// pairwise model (cheap, used inside long simulations).
type NoiseModel interface {
	// WorstNoise returns the worst per-core noise for the given busy set.
	WorstNoise(busy [core.NumCores]bool) float64
}

// PairwiseModel scores placements from per-core base noise plus
// pairwise coupling increments — the form the paper's measured
// inter-core relations suggest. Fit one from platform measurements
// with FitPairwise.
type PairwiseModel struct {
	// Base[i] is core i's noise when running alone.
	Base [core.NumCores]float64
	// Coupling[i][j] is the extra noise core i sees when core j is
	// also busy.
	Coupling [core.NumCores][core.NumCores]float64
}

// WorstNoise implements NoiseModel.
func (m *PairwiseModel) WorstNoise(busy [core.NumCores]bool) float64 {
	worst := 0.0
	for i := 0; i < core.NumCores; i++ {
		if !busy[i] {
			continue
		}
		n := m.Base[i]
		for j := 0; j < core.NumCores; j++ {
			if j != i && busy[j] {
				n += m.Coupling[i][j]
			}
		}
		if n > worst {
			worst = n
		}
	}
	return worst
}

// Evaluator measures the worst noise of a set of co-scheduled noisy
// jobs, given the busy cores.
type Evaluator func(cores []int) (float64, error)

// FitPairwise builds a pairwise model by measuring the 6 singles and
// 15 pairs, spread across `workers` concurrent workers (<= 0 selects
// one per CPU, 1 measures serially); with more than one worker the
// evaluator must be safe for concurrent use. Each measurement depends
// only on its core set, so the fitted model is bit-identical for every
// worker count.
func FitPairwise(workers int, eval Evaluator) (*PairwiseModel, error) {
	m := &PairwiseModel{}
	singles, err := exec.Map(context.Background(), core.NumCores, workers, func(_ context.Context, i int) (float64, error) {
		return eval([]int{i})
	})
	if err != nil {
		return nil, err
	}
	copy(m.Base[:], singles)
	var pairs [][2]int
	for i := 0; i < core.NumCores; i++ {
		for j := i + 1; j < core.NumCores; j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	noises, err := exec.Map(context.Background(), len(pairs), workers, func(_ context.Context, k int) (float64, error) {
		return eval(pairs[k][:])
	})
	if err != nil {
		return nil, err
	}
	for k, pair := range pairs {
		i, j := pair[0], pair[1]
		// Attribute the pair's excess over the louder single to both
		// directions symmetrically.
		base := m.Base[i]
		if m.Base[j] > base {
			base = m.Base[j]
		}
		excess := noises[k] - base
		if excess < 0 {
			excess = 0
		}
		m.Coupling[i][j] = excess
		m.Coupling[j][i] = excess
	}
	return m, nil
}

// RunResult summarizes one policy's run over a trace.
type RunResult struct {
	Policy string
	// PeakNoise is the worst model noise over all intervals.
	PeakNoise float64
	// MeanNoise is the time-weighted mean of the per-interval worst
	// noise.
	MeanNoise float64
	// Placements maps job -> core for every arrival, in arrival order.
	Placements map[int]int
}

// Run replays the event trace under the policy, scoring each interval
// with the model. Traces must be time-sorted; arrivals beyond six
// concurrent jobs or departures of unknown jobs are errors.
func Run(policy Policy, model NoiseModel, trace []Event) (*RunResult, error) {
	if policy == nil || model == nil {
		return nil, fmt.Errorf("scheduler: nil policy or model")
	}
	if !sort.SliceIsSorted(trace, func(i, j int) bool { return trace[i].Time < trace[j].Time }) {
		return nil, fmt.Errorf("scheduler: trace not time-sorted")
	}
	res := &RunResult{Policy: policy.Name(), Placements: map[int]int{}}
	var busy [core.NumCores]bool
	where := map[int]int{}
	var lastTime float64
	var weighted, total float64
	for idx, ev := range trace {
		// Score the interval ending at this event.
		if idx > 0 && ev.Time > lastTime {
			n := model.WorstNoise(busy)
			weighted += n * (ev.Time - lastTime)
			total += ev.Time - lastTime
			if n > res.PeakNoise {
				res.PeakNoise = n
			}
		}
		lastTime = ev.Time
		if ev.Arrive {
			if _, dup := where[ev.Job]; dup {
				return nil, fmt.Errorf("scheduler: job %d arrived twice", ev.Job)
			}
			c, err := policy.Place(busy)
			if err != nil {
				return nil, fmt.Errorf("scheduler: placing job %d: %w", ev.Job, err)
			}
			if busy[c] {
				return nil, fmt.Errorf("scheduler: policy %s placed job %d on busy core %d", policy.Name(), ev.Job, c)
			}
			busy[c] = true
			where[ev.Job] = c
			res.Placements[ev.Job] = c
		} else {
			c, ok := where[ev.Job]
			if !ok {
				return nil, fmt.Errorf("scheduler: departure of unknown job %d", ev.Job)
			}
			busy[c] = false
			delete(where, ev.Job)
		}
	}
	// Final busy set is scored only if jobs remain and the trace has
	// positive span; by convention the run ends at the last event.
	if total > 0 {
		res.MeanNoise = weighted / total
	}
	return res, nil
}

// Compare runs every policy over the same trace and returns results
// ordered as given.
func Compare(policies []Policy, model NoiseModel, trace []Event) ([]*RunResult, error) {
	out := make([]*RunResult, 0, len(policies))
	for _, p := range policies {
		r, err := Run(p, model, trace)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
