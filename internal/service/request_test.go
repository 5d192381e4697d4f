package service

import (
	"strings"
	"testing"
)

func validSweep() *Request {
	return &Request{
		Study:     StudyFreqSweep,
		Quick:     true,
		FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: 2},
	}
}

// TestHashStable: hashing is deterministic and insensitive to
// scheduling knobs, but sensitive to every result-affecting field.
func TestHashStable(t *testing.T) {
	base, err := validSweep().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := validSweep().Hash(); again != base {
		t.Errorf("hash not stable: %s vs %s", again, base)
	}
	// Workers is scheduling only: excluded from the hash.
	workers := validSweep()
	workers.Workers = 8
	if h, _ := workers.Hash(); h != base {
		t.Errorf("workers changed the hash: %s vs %s", h, base)
	}
	// Batch is scheduling only too: excluded from the hash.
	batch := validSweep()
	batch.Batch = 8
	if h, _ := batch.Hash(); h != base {
		t.Errorf("batch changed the hash: %s vs %s", h, base)
	}
	// Result-affecting fields must change the hash.
	variants := map[string]*Request{
		"quick":  {Study: StudyFreqSweep, FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: 2}},
		"points": {Study: StudyFreqSweep, Quick: true, FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: 3}},
		"sync":   {Study: StudyFreqSweep, Quick: true, FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: 2, Sync: true}},
	}
	for name, v := range variants {
		if h, err := v.Hash(); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if h == base {
			t.Errorf("%s variant did not change the hash", name)
		}
	}
}

// TestHashNormalizesDefaults: a request spelling a default out and
// one omitting it are the same configuration, so they share a hash.
func TestHashNormalizesDefaults(t *testing.T) {
	implicit := &Request{Study: StudyVminWalk, VminWalk: &VminWalkParams{FreqHz: 2.5e6, Events: 10}}
	explicit := &Request{Study: StudyVminWalk, VminWalk: &VminWalkParams{
		FreqHz: 2.5e6, Events: 10, FailVoltage: 0.875, MinBias: 0.80,
	}}
	hi, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hi != he {
		t.Errorf("default-spelled-out request hashes differently: %s vs %s", hi, he)
	}
}

// TestPopulationHashAndDefaults: the population block follows the
// same canonical-hash rules as the older studies — defaults spelled
// out hash like defaults omitted, scheduling knobs are excluded, and
// every fleet-shaping field moves the hash.
func TestPopulationHashAndDefaults(t *testing.T) {
	implicit := &Request{Study: StudyPopulation, Population: &PopulationParams{Chips: 100}}
	explicit := &Request{Study: StudyPopulation, Population: &PopulationParams{
		Chips:         100,
		Mix:           []string{"o3", "o3", "o3", "o3", "o3", "o3"},
		TechNode:      45,
		DecapScale:    1.0,
		ExitHz:        250e3,
		RLCBins:       8,
		SafetyPercent: 1.0,
	}}
	hi, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hi != he {
		t.Errorf("default-spelled-out population hashes differently: %s vs %s", hi, he)
	}
	sched := &Request{Study: StudyPopulation, Workers: 8, Batch: 3,
		Population: &PopulationParams{Chips: 100}}
	if h, _ := sched.Hash(); h != hi {
		t.Errorf("scheduling knobs changed the population hash")
	}
	variants := map[string]*PopulationParams{
		"chips":  {Chips: 101},
		"age":    {Chips: 100, AgeYears: 5},
		"mix":    {Chips: 100, Mix: []string{"io", "o3", "o3", "o3", "o3", "o3"}},
		"node":   {Chips: 100, TechNode: 22},
		"decap":  {Chips: 100, DecapScale: 0.8},
		"exits":  {Chips: 100, ExitHz: 1e6},
		"warmup": {Chips: 100, WarmupS: 5e-6},
		"seed":   {Chips: 100, Seed: 1},
		"bins":   {Chips: 100, RLCBins: 4},
		"safety": {Chips: 100, SafetyPercent: 2},
	}
	for name, p := range variants {
		v := &Request{Study: StudyPopulation, Population: p}
		if h, err := v.Hash(); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if h == hi {
			t.Errorf("%s variant did not change the population hash", name)
		}
	}
	// Normalize copies the mix; the caller's slice stays untouched.
	r := &Request{Study: StudyPopulation, Population: &PopulationParams{Chips: 10}}
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Population.Mix) != 6 || n.Population.Mix[0] != "o3" {
		t.Errorf("normalized mix %v", n.Population.Mix)
	}
	if len(r.Population.Mix) != 0 {
		t.Error("Normalize mutated the caller's population block")
	}
}

// TestNormalizeDoesNotMutate: Normalize returns a copy; the caller's
// request is untouched.
func TestNormalizeDoesNotMutate(t *testing.T) {
	r := &Request{Study: StudyFreqSweep, FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: 2, Sync: true}}
	n, err := r.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.FreqSweep.Events != 1000 {
		t.Errorf("normalized events = %d, want default 1000", n.FreqSweep.Events)
	}
	if r.FreqSweep.Events != 0 {
		t.Errorf("Normalize mutated the caller's request: events = %d", r.FreqSweep.Events)
	}
}

// TestValidation: malformed requests are rejected with telling errors.
func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  *Request
		want string
	}{
		{"missing study", &Request{}, "missing study"},
		{"unknown study", &Request{Study: "nope"}, "unknown study"},
		{"missing block", &Request{Study: StudyFreqSweep}, "needs a freq_sweep block"},
		{"two blocks", &Request{Study: StudyFreqSweep,
			FreqSweep: &FreqSweepParams{LoHz: 1, HiHz: 2, Points: 1},
			VminWalk:  &VminWalkParams{FreqHz: 1}}, "parameter blocks"},
		{"bad bounds", &Request{Study: StudyFreqSweep,
			FreqSweep: &FreqSweepParams{LoHz: 4e6, HiHz: 1e6, Points: 2}}, "below"},
		{"zero points", &Request{Study: StudyFreqSweep,
			FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 4e6}}, "points"},
		{"bad min bias", &Request{Study: StudyVminWalk,
			VminWalk: &VminWalkParams{FreqHz: 2e6, MinBias: 1.5}}, "min_bias"},
		{"short droops", &Request{Study: StudyGuardband,
			Guardband: &GuardbandParams{Droops: []float64{1, 2}, Trace: []UtilizationPhase{{ActiveCores: 1, DurationS: 1}}}}, "droops"},
		{"empty trace", &Request{Study: StudyGuardband,
			Guardband: &GuardbandParams{}}, "trace"},
		{"missing population block", &Request{Study: StudyPopulation}, "needs a population block"},
		{"zero chips", &Request{Study: StudyPopulation,
			Population: &PopulationParams{}}, "chips"},
		{"short mix", &Request{Study: StudyPopulation,
			Population: &PopulationParams{Chips: 10, Mix: []string{"o3"}}}, "mix"},
		{"unknown class", &Request{Study: StudyPopulation,
			Population: &PopulationParams{Chips: 10, Mix: []string{"o3", "o3", "o3", "o3", "o3", "npu"}}}, "core class"},
		{"unknown node", &Request{Study: StudyPopulation,
			Population: &PopulationParams{Chips: 10, TechNode: 28}}, "tech node"},
		{"bad exit rate", &Request{Study: StudyPopulation,
			Population: &PopulationParams{Chips: 10, ExitHz: 1}}, "exit rate"},
		{"negative warmup", &Request{Study: StudyEPIProfile,
			EPIProfile: &EPIProfileParams{WarmupCycles: -1}}, "warmup_cycles"},
		{"warmup over 2^20", &Request{Study: StudyEPIProfile,
			EPIProfile: &EPIProfileParams{WarmupCycles: 1<<20 + 1}}, "warmup_cycles"},
		{"measure over 2^20", &Request{Study: StudyEPIProfile,
			EPIProfile: &EPIProfileParams{MeasureCycles: 1<<20 + 1}}, "measure_cycles"},
	}
	for _, c := range cases {
		if _, err := c.req.Normalize(); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestEPICycleBoundsAccepted: 2^20 is the largest warm-up and
// measurement length a request may ask for, and is accepted as given.
func TestEPICycleBoundsAccepted(t *testing.T) {
	req := &Request{Study: StudyEPIProfile, EPIProfile: &EPIProfileParams{MeasureCycles: 1 << 20, WarmupCycles: 1 << 20}}
	n, err := req.Normalize()
	if err != nil {
		t.Fatalf("warmup_cycles and measure_cycles 2^20: %v", err)
	}
	if p := n.EPIProfile; p.WarmupCycles != 1<<20 || p.MeasureCycles != 1<<20 {
		t.Fatalf("normalized to warmup %d, measure %d; want both 2^20", p.WarmupCycles, p.MeasureCycles)
	}
}
