// Integration tests of the public API: everything a downstream user
// touches, exercised end to end against the paper's headline results.
package voltnoise_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"voltnoise"
)

var (
	apiOnce sync.Once
	apiLab  *voltnoise.Lab
	apiErr  error
)

func apiSetup(t *testing.T) *voltnoise.Lab {
	t.Helper()
	apiOnce.Do(func() {
		var plat *voltnoise.Platform
		plat, apiErr = voltnoise.NewPlatform(voltnoise.DefaultPlatformConfig())
		if apiErr != nil {
			return
		}
		apiLab, apiErr = voltnoise.NewLab(plat, voltnoise.WithSearch(voltnoise.QuickSearchConfig()))
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiLab
}

func TestISATableExposed(t *testing.T) {
	tab := voltnoise.ISATable()
	if n := len(tab.Instructions()); n != 1301 {
		t.Errorf("ISA size = %d", n)
	}
	if _, ok := tab.Lookup("CIB"); !ok {
		t.Error("CIB missing")
	}
}

func TestSearchAPI(t *testing.T) {
	res, err := voltnoise.FindMaxPowerSequence(voltnoise.QuickSearchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.BestPower < 40 {
		t.Errorf("search result %v / %g W", res.Best, res.BestPower)
	}
	min := voltnoise.MinPowerSequence(voltnoise.QuickSearchConfig())
	if min.Body[0].Mnemonic != "SRNM" {
		t.Errorf("min sequence = %s", min.Mnemonics())
	}
}

// TestHeadlineReproduction checks the paper's headline numbers through
// the public API: ~41 %p2p unsynchronized and ~61 %p2p synchronized at
// the ~2 MHz first-droop resonance, worst on cores 2/4.
func TestHeadlineReproduction(t *testing.T) {
	lab := apiSetup(t)
	sync, err := lab.FrequencySweep(context.Background(), []float64{2e6}, true, 1000)
	if err != nil {
		t.Fatal(err)
	}
	unsync, err := lab.FrequencySweep(context.Background(), []float64{2e6}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w := unsync[0].Worst(); w < 33 || w > 52 {
		t.Errorf("unsync worst = %g, want ~41-44", w)
	}
	if w := sync[0].Worst(); w < 55 || w > 75 {
		t.Errorf("sync worst = %g, want ~61-67", w)
	}
	ratio := sync[0].Worst() / unsync[0].Worst()
	if ratio < 1.2 || ratio > 2.0 {
		t.Errorf("sync/unsync ratio %g, paper ~1.5", ratio)
	}
}

func TestEPIProfileAPI(t *testing.T) {
	// Default measurement windows: short ones bias the bottom ranks,
	// where unpipelined ops need several initiation intervals to
	// average out.
	prof, err := voltnoise.EPIProfile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(prof.Entries); n != 1301 {
		t.Fatalf("%d entries, want 1301", n)
	}
	if top := prof.Entries[0].Instr.Mnemonic; top != "CIB" {
		t.Errorf("rank 1 is %s, want CIB", top)
	}
	if bottom := prof.Entries[len(prof.Entries)-1].Instr.Mnemonic; bottom != "SRNM" {
		t.Errorf("rank 1301 is %s, want SRNM", bottom)
	}
}

func TestVminAPI(t *testing.T) {
	lab := apiSetup(t)
	var wl [voltnoise.NumCores]voltnoise.Workload
	res, err := voltnoise.Vmin(context.Background(), lab.Platform, wl, voltnoise.VminMinBias(0.95))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Error("idle platform failed above bias 0.95")
	}
	if math.Abs(res.MarginPercent-5) > 1e-9 {
		t.Errorf("idle margin %g, want the full 5%%", res.MarginPercent)
	}
}

func TestGuardbandAPI(t *testing.T) {
	table, err := voltnoise.GuardbandFromDroops(
		[voltnoise.NumCores + 1]float64{1, 2, 3, 4, 5, 6, 7}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := voltnoise.NewGuardbandController(table)
	if err != nil {
		t.Fatal(err)
	}
	s, err := voltnoise.ReplayGuardband(ctrl, []voltnoise.UtilizationPhase{
		{ActiveCores: 2, Duration: 10},
		{ActiveCores: 6, Duration: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.EnergySavedPercent <= 0 {
		t.Errorf("no savings: %+v", s)
	}
}

func TestStressmarkSpecAPI(t *testing.T) {
	lab := apiSetup(t)
	cond := voltnoise.DefaultSync().Misalign(2)
	spec := voltnoise.StressmarkSpec{
		HighSeq:      lab.MaxSeq,
		LowSeq:       lab.MinSeq,
		StimulusFreq: 1e6,
		Duty:         0.5,
		Sync:         &cond,
		Events:       100,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := float64(cond.Match-voltnoise.DefaultSync().Match) * voltnoise.TODTickSeconds; math.Abs(got-2*voltnoise.TODTickSeconds) > 1e-15 {
		t.Errorf("misalign offset %g", got)
	}
}

func TestLogSpaceAndPeaks(t *testing.T) {
	f := voltnoise.LogSpace(1e3, 1e6, 4)
	if len(f) != 4 || f[0] != 1e3 {
		t.Errorf("LogSpace = %v", f)
	}
	lab := apiSetup(t)
	prof, err := lab.ImpedanceProfile(voltnoise.LogSpace(1e3, 100e6, 200))
	if err != nil {
		t.Fatal(err)
	}
	peaks := voltnoise.ImpedancePeaks(prof)
	if len(peaks) < 2 {
		t.Fatalf("peaks = %d", len(peaks))
	}
	// Two resonant bands as in the paper's Figure 7b.
	var mid, droop bool
	for _, p := range peaks[:2] {
		if p.Freq > 15e3 && p.Freq < 80e3 {
			mid = true
		}
		if p.Freq > 1e6 && p.Freq < 5e6 {
			droop = true
		}
	}
	if !mid || !droop {
		t.Errorf("bands missing: %+v", peaks[:2])
	}
}

func TestNewAPIsSmoke(t *testing.T) {
	// PDN netlist.
	deck := voltnoise.PDNNetlist(voltnoise.DefaultPlatformConfig(), "smoke")
	if len(deck) < 100 || deck[0] != '*' {
		t.Errorf("netlist looks wrong: %q...", deck[:20])
	}
	// Job trace generation + scheduler comparison on a synthetic model.
	trace, err := voltnoise.GenerateJobTrace(30, 1, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	model := &voltnoise.PairwiseNoiseModel{}
	for i := 0; i < voltnoise.NumCores; i++ {
		model.Base[i] = 20
		for j := 0; j < voltnoise.NumCores; j++ {
			if i != j {
				model.Coupling[i][j] = 1
			}
		}
	}
	results, err := voltnoise.CompareSchedulers(
		[]voltnoise.SchedulerPolicy{voltnoise.FirstFitPolicy(), voltnoise.NoiseAwarePolicy()},
		model, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].PeakNoise <= 0 {
		t.Errorf("scheduler results: %+v", results)
	}
	// GA search.
	gcfg := voltnoise.DefaultGeneticConfig()
	gcfg.Search = voltnoise.QuickSearchConfig()
	gcfg.Population = 10
	gcfg.Generations = 3
	gcfg.Elite = 2
	ga, err := voltnoise.EvolveMaxPowerSequence(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ga.BestPower < 30 {
		t.Errorf("GA best %g W", ga.BestPower)
	}
	// Dither + cycle-accurate workloads.
	lab := apiSetup(t)
	spec := lab.MaxSpec(2e6)
	cond := voltnoise.DefaultSync()
	spec.Sync = &cond
	spec.Events = 50
	cfg := voltnoise.DefaultPlatformConfig()
	if _, err := voltnoise.DitherWorkloads(spec, cfg.Core, 1e-6, 5); err != nil {
		t.Fatal(err)
	}
	free := lab.MaxSpec(1e6)
	if _, err := voltnoise.CycleAccurateWorkload(free, cfg.Core, cfg.Dt); err != nil {
		t.Fatal(err)
	}
}
