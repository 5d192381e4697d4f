package noise

import (
	"context"
	"fmt"
	"slices"

	"voltnoise/internal/core"
	"voltnoise/internal/signal"
)

// FreqPoint is one stimulus frequency of a sweep: the per-core %p2p
// readings.
type FreqPoint struct {
	Freq float64
	P2P  [core.NumCores]float64
}

// Worst returns the maximum per-core reading of the point.
func (p FreqPoint) Worst() float64 {
	w := p.P2P[0]
	for _, v := range p.P2P[1:] {
		if v > w {
			w = v
		}
	}
	return w
}

// FrequencySweep runs the maximum dI/dt stressmark (one copy per core)
// across stimulus frequencies and reports per-core noise.
//
// With sync=false this is the paper's Figure 7a experiment
// (unsynchronized copies; the resonant bands around ~40 kHz and ~2 MHz
// emerge); with sync=true it is Figure 9 (TOD-synchronized bursts of
// `events` consecutive ΔI events every ~4 ms; noise rises across the
// whole spectrum).
// Sweep points are independent measurement runs: points sharing a
// measurement window ride the lanes of lockstep batch sessions
// (l.Batch) and the batches fan out across l.Workers; ordered
// reduction and per-lane arithmetic keep the output bit-identical to
// the serial lane-per-run loop. Canceling ctx interrupts the sweep
// mid-run.
func (l *Lab) FrequencySweep(ctx context.Context, freqs []float64, sync bool, events int) ([]FreqPoint, error) {
	jobs := make([]measJob, len(freqs))
	for i, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("noise: non-positive sweep frequency %g", f)
		}
		spec := l.MaxSpec(f)
		if sync {
			spec = syncSpec(spec, events)
		}
		j, err := l.specJob(spec, nil)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	ms, err := l.runMeasurements(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]FreqPoint, len(freqs))
	for i, m := range ms {
		out[i] = FreqPoint{Freq: freqs[i], P2P: m.P2P}
	}
	return out, nil
}

// Waveform records the per-core supply voltage while running the
// synchronized maximum stressmark at the given stimulus frequency —
// the paper's oscilloscope shot (Figure 8). The returned traces cover
// the requested duration starting at the burst onset.
func (l *Lab) Waveform(freq, duration float64) ([core.NumCores]*signal.Trace, error) {
	var traces [core.NumCores]*signal.Trace
	j, err := l.specJob(syncSpec(l.MaxSpec(freq), 1000), nil)
	if err != nil {
		return traces, err
	}
	j.start, j.dur, j.record = 0, duration, true
	ms, err := l.runMeasurements(context.Background(), []measJob{j})
	if err != nil {
		return traces, err
	}
	return ms[0].Traces, nil
}

// MisalignPoint is one maximum-allowed-misalignment setting of the
// Figure 10 study.
type MisalignPoint struct {
	// MaxTicks is the maximum allowed misalignment in 62.5 ns TOD
	// ticks.
	MaxTicks int
	// MeanP2P is the per-core noise averaged over all placements.
	MeanP2P [core.NumCores]float64
	// Placements is how many stressmark-to-core placements were
	// averaged.
	Placements int
}

// Worst returns the maximum average per-core reading.
func (p MisalignPoint) Worst() float64 {
	w := p.MeanP2P[0]
	for _, v := range p.MeanP2P[1:] {
		if v > w {
			w = v
		}
	}
	return w
}

// MisalignmentSweep reproduces the paper's Figure 10 experiment: the
// synchronized maximum stressmark at the given stimulus frequency,
// with the per-core sync points distributed evenly within a maximum
// allowed misalignment of maxTicks 62.5 ns quanta (e.g. maxTicks=2:
// two marks at 0, two at 62.5 ns, two at 125 ns). All rotationally
// distinct assignments of offsets to cores are run and averaged, up to
// maxPlacements per point (deterministic subsampling beyond that).
func (l *Lab) MisalignmentSweep(ctx context.Context, freq float64, maxTicksList []int, events, maxPlacements int) ([]MisalignPoint, error) {
	if maxPlacements < 1 {
		return nil, fmt.Errorf("noise: maxPlacements %d", maxPlacements)
	}
	// Enumerate the full (point, placement) grid up front — the
	// combinatorics are cheap — then fan the measurement runs out as
	// one flat job list, which keeps every worker busy even when
	// points have few placements.
	type job struct {
		point int
		offs  [core.NumCores]uint64
	}
	var jobs []job
	out := make([]MisalignPoint, 0, len(maxTicksList))
	for _, maxTicks := range maxTicksList {
		if maxTicks < 0 {
			return nil, fmt.Errorf("noise: negative misalignment %d", maxTicks)
		}
		offsets := evenOffsets(maxTicks)
		placements := distinctPermutations(offsets)
		if len(placements) > maxPlacements {
			placements = subsample(placements, maxPlacements)
		}
		for _, perm := range placements {
			j := job{point: len(out)}
			copy(j.offs[:], perm)
			jobs = append(jobs, j)
		}
		out = append(out, MisalignPoint{MaxTicks: maxTicks, Placements: len(placements)})
	}
	spec := syncSpec(l.MaxSpec(freq), events)
	mjobs := make([]measJob, len(jobs))
	for i := range jobs {
		offs := jobs[i].offs
		mj, err := l.specJob(spec, &offs)
		if err != nil {
			return nil, err
		}
		mjobs[i] = mj
	}
	// Every job shares the spec's window, so the whole grid packs into
	// lockstep lanes (l.Batch) fanned out across l.Workers.
	readings, err := l.runMeasurements(ctx, mjobs)
	if err != nil {
		return nil, err
	}
	// Accumulate in job order — exactly the serial summation order, so
	// the averages carry no floating-point drift from parallelism.
	for j, m := range readings {
		pt := &out[jobs[j].point]
		for i := range pt.MeanP2P {
			pt.MeanP2P[i] += m.P2P[i]
		}
	}
	for k := range out {
		for i := range out[k].MeanP2P {
			out[k].MeanP2P[i] /= float64(out[k].Placements)
		}
	}
	return out, nil
}

// evenOffsets distributes the six stressmarks evenly across the
// misalignment range [0, maxTicks], in whole ticks, as the paper
// describes ("the stressmarks are distributed evenly within the
// misalignment range").
func evenOffsets(maxTicks int) []uint64 {
	out := make([]uint64, core.NumCores)
	if maxTicks == 0 {
		return out
	}
	slots := maxTicks + 1
	if slots > core.NumCores {
		slots = core.NumCores
	}
	for i := range out {
		slot := i * slots / core.NumCores
		out[i] = uint64(slot * maxTicks / (slots - 1))
	}
	return out
}

// distinctPermutations returns the distinct permutations of the offset
// multiset (assignments of offsets to cores), deterministically
// ordered.
func distinctPermutations(offsets []uint64) [][]uint64 {
	var out [][]uint64
	n := len(offsets)
	// Count the multiset.
	counts := map[uint64]int{}
	for _, o := range offsets {
		counts[o]++
	}
	var keys []uint64
	for k := range counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	current := make([]uint64, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			out = append(out, append([]uint64{}, current...))
			return
		}
		for _, k := range keys {
			if counts[k] == 0 {
				continue
			}
			counts[k]--
			current[pos] = k
			rec(pos + 1)
			counts[k]++
		}
	}
	rec(0)
	return out
}

// subsample keeps exactly n placements, evenly spaced across the list
// (deterministic).
func subsample(placements [][]uint64, n int) [][]uint64 {
	if len(placements) <= n {
		return placements
	}
	out := make([][]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, placements[i*len(placements)/n])
	}
	return out
}
