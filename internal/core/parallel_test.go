package core

import (
	"context"
	"reflect"
	"testing"
)

// TestVoltageBiasIsPerPlatform: two platforms on one configuration
// keep their own voltage bias, and a biased platform simulates like a
// fresh platform at that bias.
func TestVoltageBiasIsPerPlatform(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetVoltageBias(0.95); err != nil {
		t.Fatal(err)
	}
	if p.VoltageBias() != 1.0 {
		t.Errorf("bias change leaked to the other platform: %g", p.VoltageBias())
	}

	fresh, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.SetVoltageBias(0.95); err != nil {
		t.Fatal(err)
	}
	if cl.VoltageBias() != fresh.VoltageBias() {
		t.Errorf("bias %g != fresh bias %g", cl.VoltageBias(), fresh.VoltageBias())
	}
	spec := RunSpec{Duration: 5e-6}
	rc, err := cl.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fresh.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc, rf) {
		t.Error("biased platform simulates differently from a fresh one")
	}
}

// TestChipPopulationNDeterminism: generating the manufacturing-spread
// population across 8 workers yields variant-for-variant the same
// chips as the serial path.
func TestChipPopulationNDeterminism(t *testing.T) {
	const n = 6
	serial, err := ChipPopulation(context.Background(), DefaultConfig(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ChipPopulation(context.Background(), DefaultConfig(), n, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != n || len(parallel) != n {
		t.Fatalf("population sizes %d/%d, want %d", len(serial), len(parallel), n)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Config(), parallel[i].Config()) {
			t.Errorf("chip %d config differs between serial and parallel generation", i)
		}
	}
}
