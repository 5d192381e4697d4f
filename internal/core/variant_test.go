package core

import (
	"context"
	"errors"
	"testing"
)

func TestChipVariantZeroIsReference(t *testing.T) {
	ref := DefaultConfig()
	if got := ChipVariant(ref, 0); got != ref {
		t.Error("chip 0 differs from the reference")
	}
}

func TestChipVariantDeterministicAndDistinct(t *testing.T) {
	ref := DefaultConfig()
	a := ChipVariant(ref, 7)
	b := ChipVariant(ref, 7)
	if a != b {
		t.Error("same chip id produced different configs")
	}
	c := ChipVariant(ref, 8)
	if a == c {
		t.Error("different chip ids produced identical configs")
	}
	if a == ref {
		t.Error("variant identical to reference")
	}
}

func TestChipVariantWithinTolerance(t *testing.T) {
	ref := DefaultConfig()
	for id := uint64(1); id < 20; id++ {
		v := ChipVariant(ref, id)
		for i := range v.CoreGain {
			r := v.CoreGain[i] / ref.CoreGain[i]
			if r < 1-chipGainTolerance-1e-12 || r > 1+chipGainTolerance+1e-12 {
				t.Errorf("chip %d core %d gain ratio %g out of tolerance", id, i, r)
			}
		}
		for name, pair := range map[string][2]float64{
			"RDomain": {v.PDN.RDomain, ref.PDN.RDomain},
			"CL3":     {v.PDN.CL3, ref.PDN.CL3},
			"CCore":   {v.PDN.CCore, ref.PDN.CCore},
		} {
			r := pair[0] / pair[1]
			if r < 1-chipRLCTolerance-1e-12 || r > 1+chipRLCTolerance+1e-12 {
				t.Errorf("chip %d %s ratio %g out of tolerance", id, name, r)
			}
		}
		// Variants remain valid platforms.
		if err := v.Validate(); err != nil {
			t.Errorf("chip %d invalid: %v", id, err)
		}
		// Off-die parameters are untouched (process variation is a die
		// phenomenon).
		if v.PDN.CBulk != ref.PDN.CBulk || v.PDN.LPkg != ref.PDN.LPkg {
			t.Errorf("chip %d perturbed board/package parameters", id)
		}
	}
}

func TestChipPopulation(t *testing.T) {
	plats, err := ChipPopulation(context.Background(), DefaultConfig(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plats) != 4 {
		t.Fatalf("%d platforms", len(plats))
	}
	// The reference chip is first.
	if plats[0].Config() != DefaultConfig() {
		t.Error("first chip is not the reference")
	}
}

func TestChipPopulationCtxCancellation(t *testing.T) {
	// A context canceled mid-population aborts the remaining platform
	// constructions: building a chip stamps and factors a circuit, so a
	// dead fleet request must not finish thousands of them.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ChipPopulation(ctx, DefaultConfig(), 64, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled build: err = %v, want context.Canceled", err)
	}

	// Cancel concurrently with the build: the call must return promptly
	// with ctx.Err() (or nil if the population won the race) rather than
	// hanging or returning a truncated slice as success.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ChipPopulation(ctx, DefaultConfig(), 512, 2)
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel: err = %v, want nil or context.Canceled", err)
	}
}
