package stressmark

import (
	"fmt"

	"voltnoise/internal/core"
	"voltnoise/internal/isa"
	"voltnoise/internal/uarch"
)

// The paper's deterministic TOD synchronization is contrasted with the
// probabilistic "dithering" alignment of prior art (AUDIT, Kim et
// al.): without architectural timing support, each core randomizes its
// burst start within a window so that, over enough repetitions, some
// bursts eventually align. This file implements that baseline so the
// two alignment strategies can be compared on the same platform — the
// comparison the paper makes qualitatively ("probabilistic approaches
// exist to ensure an eventual alignment of ΔI events within a time
// window; we implemented a deterministic approach").

// DitherWorkloads instantiates one copy of the spec per core where
// each core delays its burst start by a pseudo-random offset within
// [0, window) seconds, re-drawn every burst period from a
// deterministic per-core stream. The spec must be synchronized (the
// burst period comes from its sync condition).
func DitherWorkloads(s Spec, cfg uarch.Config, table *isa.Table, window float64, seed uint64) ([core.NumCores]core.Workload, error) {
	var out [core.NumCores]core.Workload
	if s.Sync == nil {
		return out, fmt.Errorf("stressmark: dithering needs a synchronized spec (the burst period)")
	}
	if window < 0 || window >= s.Sync.Period() {
		return out, fmt.Errorf("stressmark: dither window %g outside [0, sync period)", window)
	}
	didt, err := s.lower(cfg, table)
	if err != nil {
		return out, err
	}
	for i := range out {
		out[i] = &ditherWorkload{
			didt:   didt,
			window: window,
			seed:   seed + uint64(i)*0x9E3779B97F4A7C15,
		}
	}
	return out, nil
}

// ditherWorkload wraps a synchronized dI/dt workload, shifting each
// burst by a per-period pseudo-random offset.
type ditherWorkload struct {
	didt   didtWorkload
	window float64
	seed   uint64
}

func (w *ditherWorkload) Name() string { return w.didt.name + "+dither" }

func (w *ditherWorkload) Power(t float64) float64 {
	period := w.didt.syncPeriod // == sync.Period(), cached at lowering
	// Which burst period are we in?
	n := int64(t / period)
	if t < 0 {
		n--
	}
	offset := w.offsetFor(n)
	// Evaluate the underlying synchronized workload at the shifted
	// time; clamp so a shifted burst never leaks into the previous
	// period's query window.
	shifted := t - offset
	if int64(shifted/period) != n && shifted > 0 {
		return w.didt.spin
	}
	return w.didt.Power(shifted)
}

// offsetFor derives the burst-start offset for period n from the
// deterministic stream.
func (w *ditherWorkload) offsetFor(n int64) float64 {
	z := w.seed + uint64(n)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return u * w.window
}
