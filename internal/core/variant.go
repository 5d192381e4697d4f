package core

import (
	"context"

	"voltnoise/internal/exec"
)

// The paper runs its experiments "on different processors multiple
// times to check their reproducibility". ChipVariant models that chip
// population: it derives a deterministic manufacturing variant of a
// platform configuration from a chip identifier, perturbing the
// process-variation-sensitive parameters — per-core skitter gains and
// the on-die RLC values — within realistic tolerances. Chip 0 is the
// reference (returned unchanged); equal identifiers always produce the
// same chip.

// chipGainTolerance is the +-5% spread of per-core sensitivity.
const chipGainTolerance = 0.05

// chipRLCTolerance is the +-3% spread of on-die electrical parameters.
const chipRLCTolerance = 0.03

// ChipVariant returns the configuration of chip `id` in the modelled
// population.
func ChipVariant(cfg Config, id uint64) Config {
	if id == 0 {
		return cfg
	}
	state := id * 0x9E3779B97F4A7C15
	next := func() float64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		return float64(z>>11)/(1<<53)*2 - 1 // [-1, 1)
	}
	perturb := func(v *float64, tol float64) { *v *= 1 + tol*next() }

	for i := range cfg.CoreGain {
		perturb(&cfg.CoreGain[i], chipGainTolerance)
	}
	p := &cfg.PDN
	for _, v := range []*float64{
		&p.RDomain, &p.LDomain, &p.CDomain,
		&p.RCoreFeed, &p.LCoreFeed, &p.CCore,
		&p.RCoreLink, &p.RCoreL3, &p.CL3,
	} {
		perturb(v, chipRLCTolerance)
	}
	return cfg
}

// ChipPopulation builds n platforms: the reference chip plus n-1
// deterministic variants, constructed across `workers` concurrent
// workers (<= 0 selects one per CPU); chip id i always lands at index
// i. A canceled context aborts the remaining platform constructions
// and returns ctx.Err(): building a large population stamps and
// validates one platform per chip, so fleet-scale callers thread their
// request context through here instead of letting a dead job finish
// the build.
func ChipPopulation(ctx context.Context, cfg Config, n, workers int) ([]*Platform, error) {
	if n < 0 {
		n = 0
	}
	return exec.Map(ctx, n, workers, func(_ context.Context, i int) (*Platform, error) {
		return New(ChipVariant(cfg, uint64(i)))
	})
}
