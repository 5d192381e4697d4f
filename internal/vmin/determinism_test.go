package vmin

import (
	"context"
	"math"
	"reflect"
	"testing"

	"voltnoise/internal/core"
)

// TestRunDeterminism: the bias walk reports the identical Result for
// Workers=1 (serial walk) and Workers=8 (parallel probe with ordered
// reduction), in both the failing and the non-failing regime. The
// parallel walk may probe biases past the first failure, but ordered
// reduction discards them, so Steps/FailBias/MarginPercent and
// MinVoltageSeen match the serial walk exactly.
func TestRunDeterminism(t *testing.T) {
	var noisy [core.NumCores]core.Workload
	for i := range noisy {
		noisy[i] = core.FuncWorkload{Label: "osc", Fn: func(tm float64) float64 {
			if math.Mod(tm, 0.5e-6) < 0.25e-6 {
				return 50
			}
			return 16
		}}
	}
	var idle [core.NumCores]core.Workload

	cases := []struct {
		name string
		wl   [core.NumCores]core.Workload
	}{
		{"failing", noisy},
		{"no_failure", idle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinBias = 0.90
			cfg.Window = Window{Start: 0, Duration: 20e-6}
			run := func(workers int) *Result {
				c := cfg
				c.Workers = workers
				p, err := core.New(core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), p, tc.wl, c)
				if err != nil {
					t.Fatal(err)
				}
				// The platform's bias is untouched.
				if p.VoltageBias() != 1.0 {
					t.Fatalf("bias left at %g", p.VoltageBias())
				}
				return res
			}
			serial := run(1)
			parallel := run(8)
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("Run Workers=1 vs 8 differ:\n%+v\n%+v", serial, parallel)
			}
			if again := run(8); !reflect.DeepEqual(parallel, again) {
				t.Errorf("Run parallel run-to-run drift:\n%+v\n%+v", parallel, again)
			}
		})
	}
}

// TestRunBatchDeterminism: packing bias steps into lockstep batch
// lanes reports the identical Result at every (workers, batch)
// combination, in both the failing and the non-failing regime. Lanes
// run at per-lane biases against one factored circuit, and the ordered
// reduction still walks steps in descending-bias order, so
// Steps/FailBias/MarginPercent and MinVoltageSeen never move.
func TestRunBatchDeterminism(t *testing.T) {
	var noisy [core.NumCores]core.Workload
	for i := range noisy {
		noisy[i] = core.FuncWorkload{Label: "osc", Fn: func(tm float64) float64 {
			if math.Mod(tm, 0.5e-6) < 0.25e-6 {
				return 50
			}
			return 16
		}}
	}
	var idle [core.NumCores]core.Workload

	cases := []struct {
		name string
		wl   [core.NumCores]core.Workload
	}{
		{"failing", noisy},
		{"no_failure", idle},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MinBias = 0.90
			cfg.Window = Window{Start: 0, Duration: 20e-6}
			run := func(workers, batch int) *Result {
				c := cfg
				c.Workers = workers
				c.Batch = batch
				p, err := core.New(core.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), p, tc.wl, c)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1, 1)
			for _, workers := range []int{1, 4, 8} {
				for _, batch := range []int{1, 3, 8} {
					if got := run(workers, batch); !reflect.DeepEqual(want, got) {
						t.Errorf("Run workers=%d batch=%d differs from serial:\n%+v\n%+v",
							workers, batch, want, got)
					}
				}
			}
		})
	}
}

// TestRunWarmPoolMatchesCold: a second walk on the same platform draws
// warm sessions from its pool; the result must match the cold walk
// bit-for-bit.
func TestRunWarmPoolMatchesCold(t *testing.T) {
	var noisy [core.NumCores]core.Workload
	for i := range noisy {
		noisy[i] = core.FuncWorkload{Label: "osc", Fn: func(tm float64) float64 {
			if math.Mod(tm, 0.5e-6) < 0.25e-6 {
				return 50
			}
			return 16
		}}
	}
	cfg := DefaultConfig()
	cfg.MinBias = 0.92
	cfg.Window = Window{Start: 0, Duration: 15e-6}
	cfg.Workers = 4
	p, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), p, noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(context.Background(), p, noisy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cold vs warm pool differ:\n%+v\n%+v", cold, warm)
	}
}

// TestRunCancellation: a canceled context interrupts the walk.
func TestRunCancellation(t *testing.T) {
	var idle [core.NumCores]core.Workload
	p, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, p, idle, DefaultConfig()); err != context.Canceled {
		t.Fatalf("canceled walk returned %v, want context.Canceled", err)
	}
}
