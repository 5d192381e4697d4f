package noise

import (
	"context"

	"voltnoise/internal/exec"
	"voltnoise/internal/vmin"
)

// MarginPoint is one cell of the Figure 12 study: the available
// voltage margin for a given number of consecutive ΔI events and
// stimulus frequency.
type MarginPoint struct {
	// Freq is the stimulus frequency in hertz.
	Freq float64
	// Events is the consecutive ΔI events per burst; 0 encodes the
	// paper's "∞ events / no synchronization" column.
	Events int
	// MarginPercent is the available margin (bias to first failure, %
	// of nominal).
	MarginPercent float64
	// Failed reports whether a failure was reached within the probed
	// bias range.
	Failed bool
}

// ConsecutiveEventStudy reproduces Figure 12: Vmin experiments for
// each (stimulus frequency, consecutive-event-count) pair. events
// entries of 0 select the unsynchronized variant. The vmin
// configuration's windows are adapted per point to cover the burst.
func (l *Lab) ConsecutiveEventStudy(ctx context.Context, freqs []float64, eventCounts []int, vcfg vmin.Config) ([]MarginPoint, error) {
	// Grid cells are independent Vmin experiments; fan them out across
	// l.Workers. Vmin only reads the platform, so every cell shares it;
	// the cell's inner bias walk parallelizes further per vcfg.Workers —
	// goroutines beyond GOMAXPROCS just queue, so nesting the pools is
	// safe.
	type cell struct {
		freq   float64
		events int
	}
	cells := make([]cell, 0, len(freqs)*len(eventCounts))
	for _, f := range freqs {
		for _, events := range eventCounts {
			cells = append(cells, cell{freq: f, events: events})
		}
	}
	return exec.Map(ctx, len(cells), l.Workers, func(ctx context.Context, i int) (MarginPoint, error) {
		c := cells[i]
		spec := l.MaxSpec(c.freq)
		if c.events != 0 {
			spec = syncSpec(spec, c.events)
		}
		j, err := l.specJob(spec, nil)
		if err != nil {
			return MarginPoint{}, err
		}
		pcfg := vcfg
		pcfg.Windows = []vmin.Window{{Start: j.start, Duration: j.dur}}
		res, err := vmin.Run(ctx, l.Platform, j.wl, pcfg)
		if err != nil {
			return MarginPoint{}, err
		}
		return MarginPoint{
			Freq:          c.freq,
			Events:        c.events,
			MarginPercent: res.MarginPercent,
			Failed:        res.Failed,
		}, nil
	})
}

// NormalizeMargins rescales margins to the worst case (smallest
// margin = most noise), as the paper's Figure 12 normalizes to "the
// highest Vbias to fail". The returned slice maps one-to-one to the
// input; values are margin minus the smallest margin observed.
func NormalizeMargins(points []MarginPoint) []float64 {
	if len(points) == 0 {
		return nil
	}
	min := points[0].MarginPercent
	for _, p := range points[1:] {
		if p.MarginPercent < min {
			min = p.MarginPercent
		}
	}
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.MarginPercent - min
	}
	return out
}
