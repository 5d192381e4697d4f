package noise

import (
	"context"
	"fmt"
	"math"
)

// FindResonance automates the experimental resonance discovery the
// paper describes as taking "hundreds (or even thousands) of test runs
// with hand-crafted programs" when done manually: a coarse logarithmic
// sweep locates the noisiest stimulus band, then the bracket is
// refined by repeated subdivision until the frequency resolution
// reaches tol (relative). It returns the discovered resonant frequency
// and the noise level there. runs counts the measurements of the
// completed rounds; a round that fails adds none.
func (l *Lab) FindResonance(ctx context.Context, lo, hi float64, coarse int, tol float64) (freq, worstP2P float64, runs int, err error) {
	if lo <= 0 || hi <= lo || coarse < 4 || tol <= 0 || tol >= 1 {
		return 0, 0, 0, fmt.Errorf("noise: FindResonance(%g, %g, %d, %g)", lo, hi, coarse, tol)
	}
	// Each round's runs are independent, so a round goes out as one
	// runMeasurements call, spread over the lab's workers and lanes; the
	// scan below stays in index order, so the answer is the serial one.
	measure := func(freqs []float64) ([]float64, error) {
		jobs := make([]measJob, len(freqs))
		for i, f := range freqs {
			j, err := l.specJob(l.MaxSpec(f), nil)
			if err != nil {
				return nil, err
			}
			jobs[i] = j
		}
		ms, err := l.runMeasurements(ctx, jobs)
		if err != nil {
			return nil, err
		}
		runs += len(freqs)
		vals := make([]float64, len(ms))
		for i, m := range ms {
			vals[i], _ = m.WorstP2P()
		}
		return vals, nil
	}
	// Coarse sweep.
	freqs := logSpace(lo, hi, coarse)
	vals, err := measure(freqs)
	if err != nil {
		return 0, 0, runs, err
	}
	bestIdx, bestVal := 0, -1.0
	for i, v := range vals {
		if v > bestVal {
			bestVal, bestIdx = v, i
		}
	}
	loIdx, hiIdx := bestIdx-1, bestIdx+1
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx > len(freqs)-1 {
		hiIdx = len(freqs) - 1
	}
	loB := freqs[loIdx]
	hiB := freqs[hiIdx]
	bestF := freqs[bestIdx]
	// Refine: subdivide the bracket until the span is within tol.
	for hiB/loB-1 > tol {
		mids := []float64{(loB + bestF) / 2, (bestF + hiB) / 2}
		vals, err := measure(mids)
		if err != nil {
			return 0, 0, runs, err
		}
		for i, v := range vals {
			if v > bestVal {
				bestVal, bestF = v, mids[i]
			}
		}
		// Narrow the bracket around the current best.
		span := (hiB - loB) / 4
		loB = bestF - span
		hiB = bestF + span
		if loB < lo {
			loB = lo
		}
		if hiB > hi {
			hiB = hi
		}
	}
	return bestF, bestVal, runs, nil
}

func logSpace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n-1)
		out[i] = lo * pow(hi/lo, t)
	}
	return out
}

func pow(base, exp float64) float64 { return math.Pow(base, exp) }
