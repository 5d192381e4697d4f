package population

import (
	"context"
	"errors"
	"math"
	"testing"

	"voltnoise/internal/core"
	"voltnoise/internal/signal"
)

// testConfig is a small, fast fleet: a heterogeneous mix, aged, with
// a short sleep period and a short warmup so a chip's window is a few
// thousand integration steps.
func testConfig(chips int) Config {
	cfg := DefaultConfig()
	cfg.Chips = chips
	cfg.AgeYears = 5
	cfg.Mix = [core.NumCores]string{"o3", "io", "o3", "io", "o3", "io"}
	cfg.TechNode = 22
	cfg.ExitHz = 2e6
	cfg.WarmupS = 4e-6
	cfg.RLCBins = 3
	cfg.Seed = 42
	return cfg
}

func TestClassesAndTechNodes(t *testing.T) {
	cls := Classes()
	if len(cls) != 2 || cls[0].Name != "io" || cls[1].Name != "o3" {
		t.Fatalf("Classes() = %v", cls)
	}
	if _, err := ClassByName("npu"); err == nil {
		t.Error("unknown class accepted")
	}
	nodes := TechNodes()
	if len(nodes) != 4 || nodes[0].Node != 45 || nodes[3].Node != 16 {
		t.Fatalf("TechNodes() = %v", nodes)
	}
	// Scaling moves the right way: shrinking cuts dynamic power,
	// grows leakage, shrinks the decap budget.
	for i := 1; i < len(nodes); i++ {
		if nodes[i].Dyn >= nodes[i-1].Dyn || nodes[i].Static <= nodes[i-1].Static || nodes[i].Decap >= nodes[i-1].Decap {
			t.Errorf("node %d nm scaling not monotonic: %+v vs %+v", nodes[i].Node, nodes[i], nodes[i-1])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := func(name string, mut func(*Config)) {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad("zero chips", func(c *Config) { c.Chips = 0 })
	bad("too many chips", func(c *Config) { c.Chips = MaxChips + 1 })
	bad("negative age", func(c *Config) { c.AgeYears = -1 })
	bad("ancient fleet", func(c *Config) { c.AgeYears = 31 })
	bad("unknown class", func(c *Config) { c.Mix[2] = "npu" })
	bad("unknown node", func(c *Config) { c.TechNode = 28 })
	bad("tiny decap", func(c *Config) { c.DecapScale = 0.1 })
	bad("slow exits", func(c *Config) { c.ExitHz = 10 })
	bad("exit faster than Dt resolves", func(c *Config) { c.ExitHz = 1e9 })
	bad("negative warmup", func(c *Config) { c.WarmupS = -1 })
	bad("zero bins", func(c *Config) { c.RLCBins = 0 })
	bad("too many bins", func(c *Config) { c.RLCBins = 65 })
	bad("negative safety", func(c *Config) { c.SafetyPercent = -1 })
}

func TestDeriveChipDeterministicAndDistinct(t *testing.T) {
	cfg := testConfig(4)
	tech := techTable[cfg.TechNode]
	a := deriveChip(cfg, tech, 7)
	b := deriveChip(cfg, tech, 7)
	if a.bin != b.bin || a.gains != b.gains || a.sleep != b.sleep {
		t.Error("same chip id derived differently")
	}
	c := deriveChip(cfg, tech, 8)
	if a.gains == c.gains {
		t.Error("different chips share gains")
	}
	// A different seed reshuffles the fleet.
	cfg2 := cfg
	cfg2.Seed++
	d := deriveChip(cfg2, tech, 7)
	if a.gains == d.gains {
		t.Error("different seeds share gains")
	}
	// Class bases show through: the in-order slots (odd cores) burn
	// far less active power than the O3 slots.
	o3 := a.sleep[0].(CState)
	io := a.sleep[1].(CState)
	if io.PActive >= o3.PActive/2 || io.PSleep >= o3.PSleep {
		t.Errorf("in-order core power not scaled down: io %+v vs o3 %+v", io, o3)
	}
}

func TestAgingMonotonic(t *testing.T) {
	gd0, sg0 := agingFactors(0, 0.5)
	if gd0 != 1 || sg0 != 1 {
		t.Fatalf("fresh silicon drifted: gain %g static %g", gd0, sg0)
	}
	prevG, prevS := gd0, sg0
	for _, age := range []float64{1, 3, 5, 10} {
		g, s := agingFactors(age, 0)
		if g <= prevG || s <= prevS {
			t.Errorf("aging not monotonic at %g years: gain %g static %g", age, g, s)
		}
		prevG, prevS = g, s
	}
	// The spread draw moves both factors the same way.
	gLo, sLo := agingFactors(5, -1)
	gHi, sHi := agingFactors(5, 0.99)
	if gLo >= gHi || sLo >= sHi {
		t.Error("aging spread inverted")
	}
}

func TestCStateWaveform(t *testing.T) {
	w := CState{PSleep: 0.3, PActive: 38, Period: 1e-6, SleepFrac: 0.5}
	if got := w.Power(0.1e-6); got != 0.3 {
		t.Errorf("asleep phase power %g", got)
	}
	if got := w.Power(0.6e-6); got != 38 {
		t.Errorf("active phase power %g", got)
	}
	// Periodicity, including far from t=0.
	if w.Power(0.1e-6) != w.Power(100.1e-6) || w.Power(0.6e-6) != w.Power(100.6e-6) {
		t.Error("waveform not periodic")
	}
	if w.Name() == "" {
		t.Error("unnamed workload")
	}
}

func TestBinQuantization(t *testing.T) {
	for _, bins := range []int{1, 3, 8} {
		for _, u := range []float64{-1, -0.999, -0.5, 0, 0.5, 0.999} {
			b := binOf(u, bins)
			if b < 0 || b >= bins {
				t.Fatalf("binOf(%g, %d) = %d", u, bins, b)
			}
			c := binCenter(b, bins)
			if c < -1 || c > 1 {
				t.Fatalf("binCenter(%d, %d) = %g", b, bins, c)
			}
			// The draw lands inside its bin's half-width.
			if math.Abs(u-c) > 1.0/float64(bins)+1e-12 {
				t.Errorf("u %g assigned to bin %d centered %g (bins %d)", u, b, c, bins)
			}
		}
	}
}

func TestBinConfigScaling(t *testing.T) {
	base := core.DefaultConfig()
	tech := techTable[22]
	cfg := binConfig(base, tech, 1.0, 0, 3)
	// On-die RLC scaled down at the low-severity bin...
	if cfg.PDN.RDomain >= base.PDN.RDomain {
		t.Error("low-severity bin did not scale RLC down")
	}
	// ...and the decap budget follows the node.
	wantC := base.PDN.CCore * (1 + rlcTolerance*binCenter(0, 3)) * tech.Decap
	if math.Abs(cfg.PDN.CCore-wantC) > 1e-18 {
		t.Errorf("CCore %g, want %g", cfg.PDN.CCore, wantC)
	}
	if cfg.UncorePower >= base.UncorePower {
		t.Error("uncore power did not follow dynamic scaling")
	}
	// Every bin config remains a valid platform.
	for b := 0; b < 3; b++ {
		if err := binConfig(base, tech, 1.0, b, 3).Validate(); err != nil {
			t.Errorf("bin %d invalid: %v", b, err)
		}
	}
}

func TestRunSmoke(t *testing.T) {
	cfg := testConfig(9)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Droop.Count != 9 || res.Vmin.Count != 9 || res.Guardband.Count != 9 {
		t.Fatalf("distribution counts %d/%d/%d, want 9", res.Droop.Count, res.Vmin.Count, res.Guardband.Count)
	}
	if res.Droop.Min <= 0 || res.Droop.Max < res.Droop.Min {
		t.Errorf("droop distribution %+v", res.Droop)
	}
	vnom := cfg.Base.PDN.Vnom
	if res.Vmin.Max >= vnom || res.Vmin.Min <= 0.7*vnom {
		t.Errorf("vmin distribution %+v outside (%g, %g)", res.Vmin, 0.7*vnom, vnom)
	}
	// Guard-band = droop from nominal + safety, so it clears the
	// safety floor on every chip.
	if res.Guardband.Min <= cfg.SafetyPercent {
		t.Errorf("guard-band floor %g, want > safety %g", res.Guardband.Min, cfg.SafetyPercent)
	}
	// Both classes appear, with 3 readings per chip each (3 slots).
	for _, name := range []string{"o3", "io"} {
		d, ok := res.PerClass[name]
		if !ok || d.Count != 27 {
			t.Errorf("class %s distribution %+v", name, d)
		}
	}
	// The O3 slots read more noise than the in-order slots.
	if res.PerClass["o3"].Mean <= res.PerClass["io"].Mean {
		t.Errorf("o3 mean %g not above io mean %g", res.PerClass["o3"].Mean, res.PerClass["io"].Mean)
	}
	if len(res.WorstChips) != 5 {
		t.Errorf("%d worst chips kept", len(res.WorstChips))
	}
	if res.WorstChips[0].WorstDroopPct != res.Droop.Max {
		t.Error("worst chip disagrees with distribution max")
	}
	if len(res.GuardbandHist) == 0 {
		t.Error("empty guard-band histogram")
	}
	// The default schedule batches lanes.
	if res.BatchedChunks == 0 {
		t.Error("no lockstep batches used at the default width")
	}
}

func TestRunAgingRaisesGuardband(t *testing.T) {
	fresh := testConfig(6)
	fresh.AgeYears = 0
	aged := testConfig(6)
	aged.AgeYears = 10
	rf, err := Run(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Run(context.Background(), aged)
	if err != nil {
		t.Fatal(err)
	}
	// An aged fleet reads more noise (sensitivity drift) and steps
	// harder (leakage growth), so its mean droop must exceed fresh
	// silicon's.
	if ra.Droop.Mean <= rf.Droop.Mean {
		t.Errorf("aged mean droop %g not above fresh %g", ra.Droop.Mean, rf.Droop.Mean)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(8)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestCStateHold pins CState's holds around its exit edge and its
// period wrap: each holds to the next edge less signal.HoldGuard,
// returns Power bit for bit, and Power agrees at the hold's last
// instant and flips just past the edge.
func TestCStateHold(t *testing.T) {
	w := CState{PSleep: 0.3, PActive: 38, Period: 1e-6, SleepFrac: 0.5}
	g := signal.HoldGuard
	for _, c := range []struct {
		name    string
		at      float64
		p, edge float64 // edge: where the value changes next
	}{
		{"asleep at the period start", 0, 0.3, 0.5e-6},
		{"asleep just before the exit", 0.5e-6 - 10*g, 0.3, 0.5e-6},
		{"active at the exit", 0.5e-6, 38, 1e-6},
		{"active just before the wrap", 1e-6 - 10*g, 38, 1e-6},
		{"asleep after the wrap", 1e-6, 0.3, 1.5e-6},
		{"active many periods on", 100.75e-6, 38, 101e-6},
		{"asleep before t=0", -0.9e-6, 0.3, -0.5e-6},
		{"active before t=0", -0.25e-6, 38, 0},
	} {
		p, until := w.Hold(c.at)
		if p != c.p || p != w.Power(c.at) {
			t.Errorf("%s: Hold(%v) = %v, Power = %v, want %v", c.name, c.at, p, w.Power(c.at), c.p)
		}
		if math.Abs(until-(c.edge-g)) > 1e-18 {
			t.Errorf("%s: hold ends at %v, want %v", c.name, until, c.edge-g)
		}
		if last := math.Nextafter(until, math.Inf(-1)); w.Power(last) != p {
			t.Errorf("%s: Power(%v) = %v at the hold's last instant, held %v", c.name, last, w.Power(last), p)
		}
		if w.Power(c.edge+g) == p {
			t.Errorf("%s: Power(%v) past the edge still %v", c.name, c.edge+g, p)
		}
	}
	// Inside the guard before an edge, the hold is refused, not
	// stretched across it.
	if _, until := w.Hold(0.5e-6 - g/2); until != 0.5e-6-g/2 {
		t.Errorf("hold granted inside the guard, until %v", until)
	}
}
