package epi

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"voltnoise/internal/isa"
)

var (
	profOnce sync.Once
	prof     *Profile
	profErr  error
)

// profile generates the full profile once; several tests share it.
func profile(t *testing.T) *Profile {
	t.Helper()
	profOnce.Do(func() {
		prof, profErr = Generate(context.Background(), DefaultConfig())
	})
	if profErr != nil {
		t.Fatal(profErr)
	}
	return prof
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Table = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil table validated")
	}
	bad = DefaultConfig()
	bad.MeasureCycles = 10
	if err := bad.Validate(); err == nil {
		t.Error("tiny window validated")
	}
	bad = DefaultConfig()
	bad.Core.DispatchWidth = 0
	if _, err := Generate(context.Background(), bad); err == nil {
		t.Error("Generate accepted bad config")
	}
}

func TestMicroBenchmarkShape(t *testing.T) {
	in := isa.ZEC12Table().MustLookup("CIB")
	b := MicroBenchmark(in)
	if b.Len() != Repetitions {
		t.Errorf("benchmark length %d, want %d", b.Len(), Repetitions)
	}
	for _, got := range b.Body[:10] {
		if got != in {
			t.Fatal("benchmark body is not the instruction")
		}
	}
}

func TestProfileCoversISA(t *testing.T) {
	p := profile(t)
	if len(p.Entries) != isa.TableSize {
		t.Errorf("profile has %d entries, want %d", len(p.Entries), isa.TableSize)
	}
}

// TestProfileReproducesTableI is the headline check: the measured
// profile's first and last five instructions match the paper's Table I
// (mnemonics and two-decimal powers).
func TestProfileReproducesTableI(t *testing.T) {
	p := profile(t)
	wantTop := []string{"CIB", "CRB", "BXHG", "CGIB", "CHHSI"}
	for i, mn := range wantTop {
		if got := p.Entries[i].Instr.Mnemonic; got != mn {
			t.Errorf("rank %d = %s, want %s", i+1, got, mn)
		}
	}
	wantBottom := []string{"DDTRA", "MXTRA", "MDTRA", "STCK", "SRNM"}
	for i, mn := range wantBottom {
		got := p.Entries[len(p.Entries)-5+i].Instr.Mnemonic
		if got != mn {
			t.Errorf("rank %d = %s, want %s", len(p.Entries)-4+i, got, mn)
		}
	}
	// Powers as printed in the paper.
	if got := p.Entries[0].RelPower; math.Abs(got-1.58) > 0.02 {
		t.Errorf("CIB power %g, want ~1.58", got)
	}
	if got := p.Entries[len(p.Entries)-1].RelPower; got != 1.0 {
		t.Errorf("SRNM power %g, want 1.00", got)
	}
}

// The measured profile must recover the ISA's ground-truth relative
// powers: the executor measurement and the analytic anchor agree.
func TestMeasuredPowersMatchGroundTruth(t *testing.T) {
	p := profile(t)
	for _, e := range p.Entries {
		if math.Abs(e.RelPower-e.Instr.RelPower) > 0.03*e.Instr.RelPower {
			t.Errorf("%s: measured %g, ground truth %g", e.Instr.Mnemonic, e.RelPower, e.Instr.RelPower)
		}
	}
}

func TestProfileRankMonotone(t *testing.T) {
	p := profile(t)
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i].PowerWatts > p.Entries[i-1].PowerWatts+1e-9 {
			t.Fatalf("rank not monotone at %d", i)
		}
	}
}

func TestIPCMeasured(t *testing.T) {
	p := profile(t)
	// CHHSI sustains 2 uops/cycle; SRNM 1/8.
	for _, e := range p.Entries {
		switch e.Instr.Mnemonic {
		case "CHHSI":
			if math.Abs(e.IPC-2) > 0.05 {
				t.Errorf("CHHSI IPC %g, want ~2", e.IPC)
			}
		case "SRNM":
			if math.Abs(e.IPC-1.0/8) > 0.01 {
				t.Errorf("SRNM IPC %g, want ~1/8", e.IPC)
			}
		}
	}
}

func TestTopBottomBounds(t *testing.T) {
	p := profile(t)
	if got := len(p.Top(3)); got != 3 {
		t.Errorf("Top(3) = %d entries", got)
	}
	if got := len(p.Bottom(4)); got != 4 {
		t.Errorf("Bottom(4) = %d entries", got)
	}
	if got := len(p.Top(1e6)); got != len(p.Entries) {
		t.Errorf("Top(huge) = %d", got)
	}
}

func TestTableIRendering(t *testing.T) {
	p := profile(t)
	s := p.TableI(5)
	for _, mn := range []string{"CIB", "CHHSI", "SRNM", "..."} {
		if !strings.Contains(s, mn) {
			t.Errorf("Table I output missing %q:\n%s", mn, s)
		}
	}
	if !strings.Contains(s, "1.58") {
		t.Errorf("Table I output missing CIB power:\n%s", s)
	}
}

func TestGenerateAllocsPerInstruction(t *testing.T) {
	// Each worker recycles one micro-benchmark and executor through a
	// pool, so steady-state profiling should allocate only a handful of
	// chunk-level objects per instruction — not a fresh 4000-entry
	// program and energy trace each (previously ~12 allocs and ~40KB
	// per instruction).
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse")
	}
	cfg := DefaultConfig()
	cfg.WarmupCycles = 16
	cfg.MeasureCycles = 128
	cfg.Workers = 1
	n := float64(len(cfg.Table.Instructions()))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perInstr := allocs / n; perInstr > 2 {
		t.Errorf("Generate allocated %.2f/instruction (%.0f total over %d), want <= 2",
			perInstr, allocs, int(n))
	}
}
