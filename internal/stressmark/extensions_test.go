package stressmark

import (
	"math"
	"testing"

	"voltnoise/internal/tod"
)

func TestGeneticConfigValidation(t *testing.T) {
	if err := DefaultGeneticConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(GeneticConfig) GeneticConfig{
		"tiny population": func(c GeneticConfig) GeneticConfig { c.Population = 2; return c },
		"no generations":  func(c GeneticConfig) GeneticConfig { c.Generations = 0; return c },
		"elite >= pop":    func(c GeneticConfig) GeneticConfig { c.Elite = c.Population; return c },
		"bad mutation":    func(c GeneticConfig) GeneticConfig { c.MutationPerMille = 1500; return c },
		"bad search":      func(c GeneticConfig) GeneticConfig { c.Search.SeqLen = 0; return c },
	}
	for name, mutate := range cases {
		if err := mutate(DefaultGeneticConfig()).Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
}

// The GA must find a sequence within a few percent of the exhaustive
// winner with far fewer evaluations — the comparison the paper draws
// against AUDIT-style searches.
func TestGeneticFindsNearOptimal(t *testing.T) {
	gcfg := DefaultGeneticConfig()
	gcfg.Search = quickSearch()
	gcfg.Population = 30
	gcfg.Generations = 15
	gcfg.Elite = 4
	exhaustive, err := FindMaxPowerSequence(gcfg.Search)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := EvolveMaxPowerSequence(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if ga.BestPower < exhaustive.BestPower*0.97 {
		t.Errorf("GA best %g W well below exhaustive %g W", ga.BestPower, exhaustive.BestPower)
	}
	if ga.Evaluations >= exhaustive.AfterIPCFilter+exhaustive.AfterUarchFilter {
		t.Logf("note: GA used %d evaluations", ga.Evaluations)
	}
	if len(ga.GenerationBest) != gcfg.Generations {
		t.Errorf("generation trace length %d", len(ga.GenerationBest))
	}
	// The per-generation best never decreases (elitism).
	for i := 1; i < len(ga.GenerationBest); i++ {
		if ga.GenerationBest[i] < ga.GenerationBest[i-1]-1e-9 {
			t.Errorf("elitism violated at generation %d: %g < %g",
				i, ga.GenerationBest[i], ga.GenerationBest[i-1])
		}
	}
}

func TestGeneticDeterministic(t *testing.T) {
	gcfg := DefaultGeneticConfig()
	gcfg.Search = quickSearch()
	gcfg.Population = 12
	gcfg.Generations = 5
	gcfg.Elite = 2
	a, err := EvolveMaxPowerSequence(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EvolveMaxPowerSequence(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Mnemonics() != b.Best.Mnemonics() || a.BestPower != b.BestPower {
		t.Errorf("GA not deterministic: %s/%g vs %s/%g",
			a.Best.Mnemonics(), a.BestPower, b.Best.Mnemonics(), b.BestPower)
	}
}

func TestDitherWorkloads(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	sync := tod.DefaultSync()
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5,
		Sync: &sync, Events: 100}
	wl, err := DitherWorkloads(spec, cfg.Core, cfg.Table, 1e-6, 42)
	if err != nil {
		t.Fatal(err)
	}
	spin := cfg.Core.Power(SpinProgram(cfg.Table))
	high := cfg.Core.Power(res.Best)
	// Every core must burst somewhere within [offset, offset+burst] of
	// each period and spin late in the period.
	for i, w := range wl {
		sawHigh := false
		for tm := 0.0; tm < 60e-6; tm += 50e-9 {
			if math.Abs(w.Power(tm)-high) < 1e-9 {
				sawHigh = true
				break
			}
		}
		if !sawHigh {
			t.Errorf("core %d never bursts", i)
		}
		if got := w.Power(3e-3); math.Abs(got-spin) > 1e-9 {
			t.Errorf("core %d late-period power %g, want spin", i, got)
		}
	}
	// Different cores dither differently (independent streams).
	same := true
	for tm := 0.0; tm < 20e-6; tm += 100e-9 {
		if wl[0].Power(tm) != wl[1].Power(tm) {
			same = false
			break
		}
	}
	if same {
		t.Error("dithered cores are identical")
	}
	// Validation paths.
	free := spec
	free.Sync = nil
	free.Events = 0
	if _, err := DitherWorkloads(free, cfg.Core, cfg.Table, 1e-6, 1); err == nil {
		t.Error("free-running spec accepted")
	}
	if _, err := DitherWorkloads(spec, cfg.Core, cfg.Table, sync.Period(), 1); err == nil {
		t.Error("window >= period accepted")
	}
}

func TestDitherDeterministic(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	sync := tod.DefaultSync()
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5,
		Sync: &sync, Events: 50}
	a, _ := DitherWorkloads(spec, cfg.Core, cfg.Table, 2e-6, 7)
	b, _ := DitherWorkloads(spec, cfg.Core, cfg.Table, 2e-6, 7)
	for tm := -1e-6; tm < 30e-6; tm += 333e-9 {
		if a[3].Power(tm) != b[3].Power(tm) {
			t.Fatalf("dither not deterministic at t=%g", tm)
		}
	}
}

// The cycle-accurate lowering must agree with the analytic envelope on
// phase plateaus — the ablation validating envelope mode.
func TestCycleAccurateMatchesEnvelope(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	spec := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5}
	const dtBucket = 2e-9
	w, err := CycleAccurateWorkload(spec, cfg.Core, dtBucket)
	if err != nil {
		t.Fatal(err)
	}
	// Mean power over the high-phase plateau, skipping its first and
	// last 10 %.
	period := 1 / spec.StimulusFreq
	n, mean := 0, 0.0
	for tm := period * spec.Duty * 0.1; tm < period*spec.Duty*0.9; tm += dtBucket {
		mean += w.Power(tm + spec.Phase)
		n++
	}
	mean /= float64(n)
	want := cfg.Core.Power(spec.HighSeq)
	if relErr := math.Abs(mean-want) / want; relErr > 0.02 {
		t.Errorf("cycle-accurate high phase deviates %g from envelope", relErr)
	}
}

func TestCycleAccurateValidation(t *testing.T) {
	cfg := quickSearch()
	res, _ := FindMaxPowerSequence(cfg)
	low := MinPowerSequence(cfg)
	sync := tod.DefaultSync()
	synced := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 2e6, Duty: 0.5,
		Sync: &sync, Events: 10}
	if _, err := CycleAccurateWorkload(synced, cfg.Core, 2e-9); err == nil {
		t.Error("synchronized spec accepted")
	}
	free := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 1e6, Duty: 0.5}
	if _, err := CycleAccurateWorkload(free, cfg.Core, 0); err == nil {
		t.Error("zero bucket accepted")
	}
	tooFast := Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: 4e9, Duty: 0.5}
	if _, err := CycleAccurateWorkload(tooFast, cfg.Core, 2e-9); err == nil {
		t.Error("stimulus above clock accepted")
	}
}
