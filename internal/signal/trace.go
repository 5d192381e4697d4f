// Package signal provides sampled-waveform containers, their extremes
// and the stressmark square-wave generator. It is the common
// currency between the PDN simulator (which produces voltage traces),
// the chip model (which produces current traces) and the measurement
// models (skitters, power meter) that consume them.
package signal

import "fmt"

// Trace is a uniformly sampled waveform: Samples[i] is the value at
// time Start + i*Dt.
type Trace struct {
	// Dt is the sampling interval in seconds. Must be positive.
	Dt float64
	// Start is the time of the first sample in seconds.
	Start float64
	// Samples holds the waveform values.
	Samples []float64
}

// NewTrace allocates a trace of n samples with interval dt starting at
// time 0.
func NewTrace(dt float64, n int) *Trace {
	if dt <= 0 {
		panic(fmt.Sprintf("signal: non-positive dt %g", dt))
	}
	if n < 0 {
		panic(fmt.Sprintf("signal: negative sample count %d", n))
	}
	return &Trace{Dt: dt, Samples: make([]float64, n)}
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Samples) }

// Duration returns the time span covered by the trace.
func (t *Trace) Duration() float64 { return float64(len(t.Samples)) * t.Dt }

// Time returns the time of sample i.
func (t *Trace) Time(i int) float64 { return t.Start + float64(i)*t.Dt }

// At returns the value at time x using linear interpolation between
// samples. Times outside the trace clamp to the first/last sample.
func (t *Trace) At(x float64) float64 {
	if len(t.Samples) == 0 {
		panic("signal: At on empty trace")
	}
	pos := (x - t.Start) / t.Dt
	if pos <= 0 {
		return t.Samples[0]
	}
	if pos >= float64(len(t.Samples)-1) {
		return t.Samples[len(t.Samples)-1]
	}
	i := int(pos)
	frac := pos - float64(i)
	return t.Samples[i]*(1-frac) + t.Samples[i+1]*frac
}

// Slice returns a view of the trace restricted to sample indices
// [lo, hi). The returned trace shares storage with t.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 || hi > len(t.Samples) || lo > hi {
		panic(fmt.Sprintf("signal: Slice[%d:%d) of trace with %d samples", lo, hi, len(t.Samples)))
	}
	return &Trace{Dt: t.Dt, Start: t.Time(lo), Samples: t.Samples[lo:hi]}
}

// Min returns the minimum sample value. Panics on an empty trace.
func (t *Trace) Min() float64 {
	t.mustNonEmpty("Min")
	m := t.Samples[0]
	for _, v := range t.Samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum sample value. Panics on an empty trace.
func (t *Trace) Max() float64 {
	t.mustNonEmpty("Max")
	m := t.Samples[0]
	for _, v := range t.Samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// PeakToPeak returns Max - Min.
func (t *Trace) PeakToPeak() float64 { return t.Max() - t.Min() }

func (t *Trace) mustNonEmpty(op string) {
	if len(t.Samples) == 0 {
		panic("signal: " + op + " on empty trace")
	}
}
