package uarch

import (
	"math"
	"testing"
	"testing/quick"

	"voltnoise/internal/isa"
)

func tab() *isa.Table { return isa.ZEC12Table() }

func ins(mn string) *isa.Instruction { return tab().MustLookup(mn) }

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	base := DefaultConfig()
	cases := map[string]func(Config) Config{
		"zero freq":       func(c Config) Config { c.FrequencyHz = 0; return c },
		"zero width":      func(c Config) Config { c.DispatchWidth = 0; return c },
		"negative static": func(c Config) Config { c.StaticPower = -1; return c },
		"base <= static":  func(c Config) Config { c.BaselinePower = c.StaticPower; return c },
		"zero unit cap":   func(c Config) Config { c.UnitCapacity[isa.UnitFXU] = 0; return c },
	}
	for name, mutate := range cases {
		if err := mutate(base).Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}

func TestLoopRates(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		mn          string
		wantPerCyc  float64
		description string
	}{
		{"CHHSI", 2, "FXU compare: limited by the 2 FXU pipes"},
		{"CIB", 1, "branch: one per group and one branch pipe"},
		{"SRNM", 1.0 / 8, "serialized unpipelined system op"},
		{"DDTRA", 1.0 / 33, "unpipelined DFP divide"},
	}
	for _, tt := range tests {
		got := cfg.LoopRate(ins(tt.mn)) / cfg.FrequencyHz
		if math.Abs(got-tt.wantPerCyc) > 1e-12 {
			t.Errorf("%s (%s): rate %g/cycle, want %g", tt.mn, tt.description, got, tt.wantPerCyc)
		}
	}
}

// The anchor property of the whole power model: a single-instruction
// loop's analytic power recovers RelPower * BaselinePower exactly.
func TestLoopPowerRecoversRelPower(t *testing.T) {
	cfg := DefaultConfig()
	for _, mn := range []string{"CIB", "CRB", "CHHSI", "SRNM", "DDTRA", "MDTRA", "STCK"} {
		in := ins(mn)
		p := MustProgram(mn, []*isa.Instruction{in})
		got := cfg.Power(p)
		want := in.RelPower * cfg.BaselinePower
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: loop power %g, want %g", mn, got, want)
		}
	}
}

// Property: the recovery holds for every instruction in the ISA.
func TestLoopPowerRecoveryAllInstructions(t *testing.T) {
	cfg := DefaultConfig()
	for _, in := range tab().Instructions() {
		p := MustProgram(in.Mnemonic, []*isa.Instruction{in})
		got := cfg.Power(p)
		want := in.RelPower * cfg.BaselinePower
		if math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: loop power %g, want %g", in.Mnemonic, got, want)
		}
	}
}

func TestMixedSequenceBeatsAnyLoop(t *testing.T) {
	// [FXU, FXU, branch] engages two units at full dispatch width and
	// must burn more power than any single-instruction loop — the
	// premise of the max-power sequence search.
	cfg := DefaultConfig()
	seq := MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")})
	mixed := cfg.Power(seq)
	maxLoop := 0.0
	for _, in := range tab().Instructions() {
		if p := cfg.Power(MustProgram("x", []*isa.Instruction{in})); p > maxLoop {
			maxLoop = p
		}
	}
	if mixed <= maxLoop {
		t.Errorf("mixed sequence %g W <= best single loop %g W", mixed, maxLoop)
	}
}

func TestFormGroupsBranchCloses(t *testing.T) {
	cfg := DefaultConfig()
	// [normal normal branch] repeats exactly as one group of 3.
	gs := cfg.FormGroups(MustProgram("g", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")}))
	if math.Abs(gs.GroupsPerIteration-1) > 1e-12 {
		t.Errorf("groups/iter = %g, want 1", gs.GroupsPerIteration)
	}
	if math.Abs(gs.AvgGroupSize-3) > 1e-12 {
		t.Errorf("avg group size = %g, want 3", gs.AvgGroupSize)
	}
	// A lone branch forms its own group of 1.
	gs = cfg.FormGroups(MustProgram("b", []*isa.Instruction{ins("CIB")}))
	if gs.AvgGroupSize != 1 {
		t.Errorf("branch-only avg group size = %g", gs.AvgGroupSize)
	}
}

func TestFormGroupsCyclicSteadyState(t *testing.T) {
	cfg := DefaultConfig()
	// A single normal instruction loop: groups of 3 spanning iteration
	// boundaries (1/3 group per iteration).
	gs := cfg.FormGroups(MustProgram("one", []*isa.Instruction{ins("CHHSI")}))
	if math.Abs(gs.GroupsPerIteration-1.0/3) > 1e-12 {
		t.Errorf("groups/iter = %g, want 1/3", gs.GroupsPerIteration)
	}
	if math.Abs(gs.AvgGroupSize-3) > 1e-12 {
		t.Errorf("avg group size = %g, want 3", gs.AvgGroupSize)
	}
	// Two normal instructions: steady state alternates fill, still
	// size-3 groups on average (2 iterations -> 2 groups of 3).
	gs = cfg.FormGroups(MustProgram("two", []*isa.Instruction{ins("CHHSI"), ins("CHHSI")}))
	if math.Abs(gs.AvgGroupSize-3) > 1e-12 {
		t.Errorf("avg group size = %g, want 3", gs.AvgGroupSize)
	}
}

func TestFormGroupsAlone(t *testing.T) {
	cfg := DefaultConfig()
	gs := cfg.FormGroups(MustProgram("a", []*isa.Instruction{ins("CHHSI"), ins("SRNM"), ins("CHHSI")}))
	// Iteration: [CHHSI][SRNM][CHHSI ...]: the open group merges with
	// the next iteration's leading CHHSI. Steady state: CHHSI+CHHSI
	// group (2 uops), SRNM alone. 2 groups + partial leads to period 1
	// with fill=1... just assert alone op never shares.
	if gs.AvgGroupSize > 2 {
		t.Errorf("avg group size = %g, expected <= 2 with a serializing op", gs.AvgGroupSize)
	}
}

func TestAnalyzeIPCAndLimitingUnit(t *testing.T) {
	cfg := DefaultConfig()
	ss := cfg.Analyze(MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")}))
	if math.Abs(ss.IPC-3) > 1e-12 {
		t.Errorf("IPC = %g, want 3", ss.IPC)
	}
	if ss.LimitingUnit != isa.Unit(-1) {
		t.Errorf("limiting unit = %v, want dispatch-limited", ss.LimitingUnit)
	}
	// FXU-only program: 3 uops demand vs 2 pipes -> unit limited.
	ss = cfg.Analyze(MustProgram("fxu", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CHHSI")}))
	if ss.LimitingUnit != isa.UnitFXU {
		t.Errorf("limiting unit = %v, want FXU", ss.LimitingUnit)
	}
	if math.Abs(ss.IPC-2) > 1e-12 {
		t.Errorf("FXU-bound IPC = %g, want 2", ss.IPC)
	}
}

func TestExecutorMatchesAnalyticPower(t *testing.T) {
	cfg := DefaultConfig()
	programs := []*Program{
		MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")}),
		MustProgram("fxu", []*isa.Instruction{ins("CHHSI")}),
		MustProgram("dfp", []*isa.Instruction{ins("DDTRA")}),
		MustProgram("sys", []*isa.Instruction{ins("SRNM")}),
		MustProgram("mix", []*isa.Instruction{ins("CHHSI"), ins("DDTRA"), ins("CIB"), ins("CHHSI")}),
	}
	for _, p := range programs {
		ex, err := NewExecutor(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		got := ex.AveragePower(2000, 20000)
		want := cfg.Power(p)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("%s: executor power %g, analytic %g", p.Name, got, want)
		}
	}
}

func TestExecutorCountersMatchIPC(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	_, c := ex.MeanEnergyWithCounters(10000)
	ipc := float64(c.MicroOps) / float64(c.Cycles)
	if math.Abs(ipc-3) > 0.01 {
		t.Errorf("executor IPC = %g, want 3", ipc)
	}
	if c.Groups != c.Cycles {
		t.Errorf("groups %d != cycles %d for saturated stream", c.Groups, c.Cycles)
	}
}

func TestExecutorSerializedRate(t *testing.T) {
	cfg := DefaultConfig()
	p := MustProgram("srnm", []*isa.Instruction{ins("SRNM")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	_, c := ex.MeanEnergyWithCounters(8000)
	rate := float64(c.MicroOps) / float64(c.Cycles)
	if math.Abs(rate-1.0/8) > 0.01 {
		t.Errorf("SRNM rate = %g, want 1/8", rate)
	}
}

func TestExecutorValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.DispatchWidth = 0
	if _, err := NewExecutor(bad, MustProgram("x", []*isa.Instruction{ins("CIB")})); err == nil {
		t.Error("expected config error")
	}
	if _, err := NewExecutor(DefaultConfig(), nil); err == nil {
		t.Error("expected nil-program error")
	}
}

func TestProgramHelpers(t *testing.T) {
	p := MustProgram("p", []*isa.Instruction{ins("CHHSI"), ins("CIB")})
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
	if p.TotalMicroOps() != 2 {
		t.Errorf("TotalMicroOps = %d", p.TotalMicroOps())
	}
	if p.Mnemonics() != "CHHSI CIB" {
		t.Errorf("Mnemonics = %q", p.Mnemonics())
	}
	if p.Listing() == "" || p.String() == "" {
		t.Error("empty listing/string")
	}
}

func TestProgramValidation(t *testing.T) {
	if _, err := NewProgram("e", nil); err == nil {
		t.Error("empty body accepted")
	}
	if _, err := NewProgram("n", []*isa.Instruction{nil}); err == nil {
		t.Error("nil instruction accepted")
	}
}

// Property: for random small programs, the executor's measured IPC
// never exceeds the analytic steady-state IPC by more than rounding,
// and analytic IPC never exceeds dispatch width.
func TestExecutorNeverBeatsAnalyticProperty(t *testing.T) {
	cfg := DefaultConfig()
	all := tab().Instructions()
	f := func(picks [5]uint16) bool {
		body := make([]*isa.Instruction, len(picks))
		for i, p := range picks {
			body[i] = all[int(p)%len(all)]
		}
		prog := MustProgram("rnd", body)
		ss := cfg.Analyze(prog)
		if ss.IPC > float64(cfg.DispatchWidth)+1e-9 {
			return false
		}
		ex, err := NewExecutor(cfg, prog)
		if err != nil {
			return false
		}
		// Warm up past transient, then measure.
		for i := 0; i < 2000; i++ {
			ex.StepCycle()
		}
		_, c := ex.MeanEnergyWithCounters(8000)
		ipc := float64(c.MicroOps) / float64(c.Cycles)
		return ipc <= ss.IPC*1.02+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkExecutorStepCycle(b *testing.B) {
	cfg := DefaultConfig()
	p := MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB")})
	ex, err := NewExecutor(cfg, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.StepCycle()
	}
}

func BenchmarkAnalyze(b *testing.B) {
	cfg := DefaultConfig()
	p := MustProgram("max", []*isa.Instruction{ins("CHHSI"), ins("CHHSI"), ins("CIB"), ins("CHHSI"), ins("CHHSI"), ins("CIB")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Analyze(p)
	}
}
