package stressmark

import (
	"math"
	"testing"

	"voltnoise/internal/isa"
	"voltnoise/internal/tod"
	"voltnoise/internal/uarch"
)

// quickSearch returns a reduced-size search configuration for fast
// tests; the default (paper-sized) pipeline is exercised once in
// TestFullPipelineFunnel.
func quickSearch() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.SeqLen = 3
	cfg.NumCandidates = 5
	cfg.KeepTopIPC = 50
	cfg.EvalCycles = 1024
	return cfg
}

func TestSearchConfigValidation(t *testing.T) {
	if err := DefaultSearchConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(SearchConfig) SearchConfig{
		"nil table":    func(c SearchConfig) SearchConfig { c.Table = nil; return c },
		"zero seq len": func(c SearchConfig) SearchConfig { c.SeqLen = 0; return c },
		"zero cands":   func(c SearchConfig) SearchConfig { c.NumCandidates = 0; return c },
		"zero keep":    func(c SearchConfig) SearchConfig { c.KeepTopIPC = 0; return c },
		"neg branch":   func(c SearchConfig) SearchConfig { c.MaxBranches = -1; return c },
		"tiny eval":    func(c SearchConfig) SearchConfig { c.EvalCycles = 10; return c },
		"bad core":     func(c SearchConfig) SearchConfig { c.Core.DispatchWidth = 0; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultSearchConfig()).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestSelectCandidates(t *testing.T) {
	cfg := DefaultSearchConfig()
	cands := SelectCandidates(cfg)
	if len(cands) != cfg.NumCandidates {
		t.Fatalf("selected %d candidates, want %d", len(cands), cfg.NumCandidates)
	}
	units := map[isa.Unit]bool{}
	for _, in := range cands {
		if in.Issue == isa.IssueAlone {
			t.Errorf("serializing candidate %s selected", in.Mnemonic)
		}
		if !in.Pipelined() {
			t.Errorf("unpipelined candidate %s selected", in.Mnemonic)
		}
		units[in.Unit] = true
	}
	// Round-robin selection must cover several units, including the
	// branch unit (needed for full dispatch groups) and the FXU.
	if !units[isa.UnitBranch] || !units[isa.UnitFXU] {
		t.Errorf("candidate units %v missing BRU or FXU", units)
	}
	// The power-rank leader CIB must be among the candidates.
	found := false
	for _, in := range cands {
		if in.Mnemonic == "CIB" {
			found = true
		}
	}
	if !found {
		t.Error("CIB (power rank #1) not selected")
	}
}

func TestSelectCandidatesDeterministic(t *testing.T) {
	cfg := DefaultSearchConfig()
	a := SelectCandidates(cfg)
	b := SelectCandidates(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection differs at %d: %s vs %s", i, a[i].Mnemonic, b[i].Mnemonic)
		}
	}
}

func TestUarchFilter(t *testing.T) {
	cfg := DefaultSearchConfig()
	tab := cfg.Table
	chhsi := tab.MustLookup("CHHSI")
	cib := tab.MustLookup("CIB")
	// Full groups with a branch at each group end: passes.
	if !passesUarchFilter(cfg, []*isa.Instruction{chhsi, chhsi, cib, chhsi, chhsi, cib}) {
		t.Error("ideal sequence filtered out")
	}
	// Three branches exceed the budget.
	if passesUarchFilter(cfg, []*isa.Instruction{cib, cib, cib, chhsi, chhsi, chhsi}) {
		t.Error("3-branch sequence passed")
	}
	// A branch mid-group breaks group-size 3.
	if passesUarchFilter(cfg, []*isa.Instruction{chhsi, cib, chhsi, chhsi, chhsi, cib}) {
		t.Error("mid-group branch sequence passed")
	}
}

func TestQuickSearchFindsMultiUnitSequence(t *testing.T) {
	cfg := quickSearch()
	res, err := FindMaxPowerSequence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != pow(cfg.NumCandidates, cfg.SeqLen) {
		t.Errorf("generated %d, want %d", res.Generated, pow(cfg.NumCandidates, cfg.SeqLen))
	}
	if res.AfterUarchFilter <= 0 || res.AfterUarchFilter > res.Generated {
		t.Errorf("uarch filter count %d", res.AfterUarchFilter)
	}
	if res.AfterIPCFilter > cfg.KeepTopIPC {
		t.Errorf("IPC filter kept %d > %d", res.AfterIPCFilter, cfg.KeepTopIPC)
	}
	if res.Best == nil || res.Best.Len() != cfg.SeqLen {
		t.Fatalf("best = %v", res.Best)
	}
	// The winner must beat every single-instruction loop: the premise
	// that mixing units maximizes power.
	maxLoop := 0.0
	for _, in := range cfg.Table.Instructions() {
		if p := cfg.Core.Power(uarch.MustProgram("x", []*isa.Instruction{in})); p > maxLoop {
			maxLoop = p
		}
	}
	if res.BestPower <= maxLoop {
		t.Errorf("best sequence %g W does not beat best loop %g W", res.BestPower, maxLoop)
	}
	// And it must engage more than one functional unit.
	units := map[isa.Unit]bool{}
	for _, in := range res.Best.Body {
		units[in.Unit] = true
	}
	if len(units) < 2 {
		t.Errorf("max-power sequence uses a single unit: %s", res.Best.Mnemonics())
	}
}

func TestMinPowerSequenceIsRankBottom(t *testing.T) {
	cfg := DefaultSearchConfig()
	min := MinPowerSequence(cfg)
	if min.Len() != 1 || min.Body[0].Mnemonic != "SRNM" {
		t.Errorf("min power sequence = %s, want SRNM", min.Mnemonics())
	}
	// Its power is the ISA floor: BaselinePower.
	if p := cfg.Core.Power(min); math.Abs(p-cfg.Core.BaselinePower) > 1e-9 {
		t.Errorf("min power = %g, want %g", p, cfg.Core.BaselinePower)
	}
}

func TestSequenceWithPowerHitsTarget(t *testing.T) {
	cfg := quickSearch()
	res, err := FindMaxPowerSequence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pHigh := cfg.Core.Power(res.Best)
	pLow := cfg.Core.Power(MinPowerSequence(cfg))
	target := (pHigh + pLow) / 2
	med, err := SequenceWithPower(cfg, res.Best, target, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Core.Power(med); math.Abs(got-target) > 0.5 {
		t.Errorf("medium sequence power %g, want %g +- 0.5", got, target)
	}
}

func TestSequenceWithPowerRejectsOutOfRange(t *testing.T) {
	cfg := quickSearch()
	res, err := FindMaxPowerSequence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SequenceWithPower(cfg, res.Best, 1e6, 1); err == nil {
		t.Error("absurd target accepted")
	}
	if _, err := SequenceWithPower(cfg, res.Best, 0, 1); err == nil {
		t.Error("below-floor target accepted")
	}
}

func TestSpecValidation(t *testing.T) {
	cfg := quickSearch()
	high, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	good := Spec{HighSeq: high.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	sync := tod.DefaultSync()
	cases := map[string]Spec{
		"nil seqs":   {StimulusFreq: 1e6, Duty: 0.5},
		"zero freq":  {HighSeq: high.Best, LowSeq: low, Duty: 0.5},
		"bad duty":   {HighSeq: high.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 1},
		"neg events": {HighSeq: high.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5, Events: -1},
		"neg edge":   {HighSeq: high.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5, EdgeTime: -1},
		"sync no events": {HighSeq: high.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5,
			Sync: &sync},
		"burst too long": {HighSeq: high.Best, LowSeq: low, StimulusFreq: 1e3, Duty: 0.5,
			Sync: &sync, Events: 1000},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

func TestWorkloadPhases(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5}
	w, err := spec.Workload(cfg.Core, cfg.Table)
	if err != nil {
		t.Fatal(err)
	}
	pHigh := cfg.Core.Power(res.Best)
	pLow := cfg.Core.Power(low)
	// High phase at 0.25us (mid high half), low at 0.75us.
	if got := w.Power(0.25e-6); math.Abs(got-pHigh) > 1e-9 {
		t.Errorf("high phase power %g, want %g", got, pHigh)
	}
	if got := w.Power(0.75e-6); math.Abs(got-pLow) > 1e-9 {
		t.Errorf("low phase power %g, want %g", got, pLow)
	}
}

func TestSyncWorkloadBurstsAndSpins(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	sync := tod.DefaultSync()
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5,
		Sync: &sync, Events: 100}
	w, err := spec.Workload(cfg.Core, cfg.Table)
	if err != nil {
		t.Fatal(err)
	}
	pHigh := cfg.Core.Power(res.Best)
	spin := cfg.Core.Power(SpinProgram(cfg.Table))
	// Inside the burst (first event's high phase).
	if got := w.Power(0.1e-6); math.Abs(got-pHigh) > 1e-9 {
		t.Errorf("burst power %g, want %g", got, pHigh)
	}
	// Long after the 100-event burst (50us): spinning.
	if got := w.Power(60e-6); math.Abs(got-spin) > 1e-9 {
		t.Errorf("post-burst power %g, want spin %g", got, spin)
	}
	// The next sync period bursts again.
	if got := w.Power(sync.Period() + 0.1e-6); math.Abs(got-pHigh) > 1e-9 {
		t.Errorf("next-period burst power %g, want %g", got, pHigh)
	}
}

func TestMisalignedSyncWorkloadShiftsBurst(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	base := tod.DefaultSync()
	shifted := base.Misalign(4) // 250ns
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5,
		Sync: &shifted, Events: 100}
	w, err := spec.Workload(cfg.Core, cfg.Table)
	if err != nil {
		t.Fatal(err)
	}
	spin := cfg.Core.Power(SpinProgram(cfg.Table))
	pHigh := cfg.Core.Power(res.Best)
	// Before the shifted sync point: still spinning.
	if got := w.Power(0.1e-6); math.Abs(got-spin) > 1e-9 {
		t.Errorf("pre-shift power %g, want spin %g", got, spin)
	}
	// Just after 250ns: bursting.
	if got := w.Power(250e-9 + 0.1e-6); math.Abs(got-pHigh) > 1e-9 {
		t.Errorf("post-shift power %g, want high %g", got, pHigh)
	}
}

func TestUnsyncSyncConstructors(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5}
	if _, err := UnsyncWorkloads(spec, cfg.Core, cfg.Table); err != nil {
		t.Fatal(err)
	}
	sync := tod.DefaultSync()
	sspec := spec
	sspec.Sync = &sync
	sspec.Events = 10
	if _, err := SyncWorkloads(sspec, cfg.Core, cfg.Table, nil); err != nil {
		t.Fatal(err)
	}
	// Cross-constructor misuse errors.
	if _, err := UnsyncWorkloads(sspec, cfg.Core, cfg.Table); err == nil {
		t.Error("UnsyncWorkloads accepted a synchronized spec")
	}
	if _, err := SyncWorkloads(spec, cfg.Core, cfg.Table, nil); err == nil {
		t.Error("SyncWorkloads accepted a free-running spec")
	}
}

// TestUnsyncWorkloadsMatchPerCoreLowering pins the lower-once
// construction to its definition: each core's copy must be the
// workload Spec.Workload lowers with that core's unsynchronized phase.
func TestUnsyncWorkloadsMatchPerCoreLowering(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	for _, freq := range []float64{0.7e6, 2e6, 13e6} {
		// A caller-set phase is overridden by the per-core phases.
		spec := Spec{HighSeq: res.Best, LowSeq: MinPowerSequence(cfg), StimulusFreq: freq, Duty: 0.4, Phase: 1e-7}
		got, err := UnsyncWorkloads(spec, cfg.Core, cfg.Table)
		if err != nil {
			t.Fatal(err)
		}
		period := 1 / freq
		for i, w := range got {
			si := spec
			si.Phase = UnsyncPhases[i] / freq
			want, err := si.Workload(cfg.Core, cfg.Table)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name() != want.Name() {
				t.Errorf("%g Hz core %d: name %q, want %q", freq, i, w.Name(), want.Name())
			}
			for k := -50; k <= 300; k++ {
				tt := float64(k) * period / 97
				if g, e := w.Power(tt), want.Power(tt); g != e {
					t.Fatalf("%g Hz core %d: Power(%g) = %g, want %g", freq, i, tt, g, e)
				}
			}
		}
	}
}

// TestUnsyncWorkloadsLowerOnce guards the allocation contract: six
// copies cost one lowering plus the copies' shared backing array. The
// bound sits below two lowerings rather than at one plus one, because
// under the race detector either count can drift by an allocation.
func TestUnsyncWorkloadsLowerOnce(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	spec := Spec{HighSeq: res.Best, LowSeq: MinPowerSequence(cfg), StimulusFreq: 2e6, Duty: 0.5}
	one := testing.AllocsPerRun(20, func() {
		if _, err := spec.Workload(cfg.Core, cfg.Table); err != nil {
			t.Fatal(err)
		}
	})
	all := testing.AllocsPerRun(20, func() {
		if _, err := UnsyncWorkloads(spec, cfg.Core, cfg.Table); err != nil {
			t.Fatal(err)
		}
	})
	if all >= 2*one {
		t.Errorf("UnsyncWorkloads: %.0f allocs per call, want fewer than two lowerings (%.0f)", all, 2*one)
	}
}

func TestSpinProgramPowerNearLow(t *testing.T) {
	cfg := DefaultSearchConfig()
	spin := cfg.Core.Power(SpinProgram(cfg.Table))
	low := cfg.Core.Power(MinPowerSequence(cfg))
	if spin < low*0.8 || spin > low*1.3 {
		t.Errorf("spin power %g too far from low-power level %g", spin, low)
	}
}

func TestDeltaPower(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5}
	d := spec.DeltaPower(cfg.Core)
	if d <= 0 {
		t.Errorf("delta power %g", d)
	}
	want := cfg.Core.Power(res.Best) - cfg.Core.Power(low)
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("delta power %g, want %g", d, want)
	}
}

// TestFullPipelineFunnel runs the paper-sized search once and checks
// the funnel counts: 9^6 = 531441 generated, a strict reduction at the
// microarchitectural filter, exactly 1000 after the IPC filter.
func TestFullPipelineFunnel(t *testing.T) {
	if testing.Short() {
		t.Skip("full 531k-sequence search in -short mode")
	}
	cfg := DefaultSearchConfig()
	res, err := FindMaxPowerSequence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 531441 {
		t.Errorf("generated %d, want 531441", res.Generated)
	}
	if res.AfterUarchFilter >= res.Generated || res.AfterUarchFilter == 0 {
		t.Errorf("uarch filter count %d", res.AfterUarchFilter)
	}
	if res.AfterIPCFilter != 1000 {
		t.Errorf("IPC filter kept %d, want 1000", res.AfterIPCFilter)
	}
	// The best sequence must sustain full dispatch groups.
	gs := cfg.Core.FormGroups(res.Best)
	if gs.AvgGroupSize < 2.999 {
		t.Errorf("best sequence group size %g", gs.AvgGroupSize)
	}
}

func BenchmarkMaxPowerSearch(b *testing.B) {
	cfg := quickSearch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindMaxPowerSequence(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Parallel power evaluation must produce exactly the same winner as
// the serial path.
func TestSearchParallelismDeterministic(t *testing.T) {
	serial := quickSearch()
	parallel := quickSearch()
	parallel.Parallelism = 4
	a, err := FindMaxPowerSequence(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindMaxPowerSequence(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Mnemonics() != b.Best.Mnemonics() {
		t.Errorf("parallel winner %s differs from serial %s", b.Best.Mnemonics(), a.Best.Mnemonics())
	}
	if a.BestPower != b.BestPower {
		t.Errorf("parallel power %g differs from serial %g", b.BestPower, a.BestPower)
	}
	// Per the repo-wide workers convention, a negative count means
	// "one worker per CPU" — same winner, not an error.
	neg := quickSearch()
	neg.Parallelism = -1
	c, err := FindMaxPowerSequence(neg)
	if err != nil {
		t.Fatalf("negative parallelism rejected: %v", err)
	}
	if c.Best.Mnemonics() != a.Best.Mnemonics() {
		t.Errorf("negative-parallelism winner %s differs from serial %s", c.Best.Mnemonics(), a.Best.Mnemonics())
	}
}
