package pdn

import "math"

// ZEC12Config parameterizes the zEC12-like PDN preset. The zero value
// is not usable; start from DefaultZEC12Config and override fields.
// The default values are calibrated so that the network's impedance
// profile shows the two broad resonant bands the paper reports: a
// mid-frequency band near 40 kHz (package bulk capacitance against
// board/connector inductance) and the shifted "first droop" band near
// 2 MHz (deep-trench eDRAM die capacitance against the package feed
// inductance). See DESIGN.md for the calibration targets.
type ZEC12Config struct {
	// Vnom is the VRM output voltage in volts.
	Vnom float64

	// Motherboard stage.
	RBoard    float64 // series resistance VRM -> board (ohms)
	LBoard    float64 // series inductance VRM -> board (henries)
	CBulk     float64 // bulk capacitance at the board node (farads)
	CBulkESR  float64 // bulk capacitor ESR (ohms)
	RPkg      float64 // series resistance board -> package (ohms)
	LPkg      float64 // series inductance board -> package (henries)
	CPkg      float64 // package decap (farads)
	CPkgESR   float64 // package decap ESR (ohms)
	RDomain   float64 // series resistance package -> each on-die domain (ohms)
	LDomain   float64 // series inductance package -> each on-die domain (henries)
	CDomain   float64 // decap at each domain node (farads)
	RCoreFeed float64 // on-die resistance domain -> core node (ohms)
	LCoreFeed float64 // on-die inductance domain -> core node (henries)
	CCore     float64 // local decap at each core node (farads)
	RCoreLink float64 // on-die grid resistance between adjacent cores in a cluster (ohms)
	RCoreL3   float64 // on-die grid resistance core -> L3 node (ohms)

	// DeepTrenchFactor scales ALL on-die capacitance (core, domain and
	// L3 decap). 1.0 is the calibrated zEC12-like value with
	// deep-trench technology installed; the paper states deep trench
	// "augmented the on-chip capacitance by 40x", so 1/40 models the
	// pre-deep-trench generation it compares against, moving the first
	// droop back above 5 MHz (historically 30-100 MHz).
	DeepTrenchFactor float64
	// CL3 is the L3 eDRAM deep-trench capacitance at factor 1.0.
	CL3 float64
	// L3Bridge controls whether the L3 node connects to the core grid.
	// Disabling it is an ablation: the damping/clustering the paper
	// attributes to the L3 disappears.
	L3Bridge bool
}

// DefaultZEC12Config returns the calibrated preset configuration.
func DefaultZEC12Config() ZEC12Config {
	return ZEC12Config{
		Vnom: 1.05,

		RBoard:   0.06e-3,
		LBoard:   0.8e-9,
		CBulk:    62.5e-3,
		CBulkESR: 0.6e-3,

		RPkg:    0.08e-3,
		LPkg:    0.5e-9,
		CPkg:    13e-3,
		CPkgESR: 0.04e-3,

		RDomain: 0.08e-3,
		LDomain: 48e-12,
		CDomain: 12.5e-6,

		RCoreFeed: 0.15e-3,
		LCoreFeed: 2e-12,
		CCore:     12.5e-6,
		RCoreLink: 0.02e-3,
		RCoreL3:   0.30e-3,

		DeepTrenchFactor: 1.0,
		CL3:              150e-6,
		L3Bridge:         true,
	}
}

// NumCores is the number of cores on the zEC12 CP chip.
const NumCores = 6

// ZEC12Nodes names the externally interesting nodes of the preset.
type ZEC12Nodes struct {
	// VRM is the fixed-voltage regulator output node.
	VRM NodeID
	// Board and Pkg are the motherboard and package distribution nodes.
	Board, Pkg NodeID
	// Domain[0] feeds cores {0,2,4} (the chip's upper row); Domain[1]
	// feeds cores {1,3,5} (lower row). The split mirrors the paper's
	// two on-chip voltage domains sharing a single package domain.
	Domain [2]NodeID
	// Core[i] is the supply node sensed by core i's skitter macro.
	Core [NumCores]NodeID
	// L3 is the eDRAM L3 node between the clusters.
	L3 NodeID
}

// DomainOf returns the on-die voltage domain index of a core:
// 0 for cores {0,2,4}, 1 for cores {1,3,5}.
func DomainOf(core int) int { return core % 2 }

// ClusterOf returns the cores sharing core's domain, in ascending
// order, e.g. ClusterOf(2) == [0 2 4].
func ClusterOf(core int) [3]int {
	d := DomainOf(core)
	return [3]int{d, d + 2, d + 4}
}

// ZEC12 builds the zEC12-like PDN. The returned nodes identify the
// probe/injection points used by the higher layers.
func ZEC12(cfg ZEC12Config) (*Circuit, ZEC12Nodes) {
	mustPositive := func(name string, v float64) {
		if v <= 0 {
			panic("pdn: ZEC12 config field " + name + " must be positive")
		}
	}
	mustPositive("Vnom", cfg.Vnom)
	mustPositive("DeepTrenchFactor", cfg.DeepTrenchFactor)

	c := NewCircuit()
	var n ZEC12Nodes
	n.VRM = c.Node("vrm")
	n.Board = c.Node("board")
	n.Pkg = c.Node("pkg")
	n.Domain[0] = c.Node("domA")
	n.Domain[1] = c.Node("domB")
	for i := 0; i < NumCores; i++ {
		n.Core[i] = c.Node(coreNodeName(i))
	}
	n.L3 = c.Node("l3")

	c.FixNode(n.VRM, cfg.Vnom)

	// VRM --R--> board.mid --L--> board --R,L--> package.
	bmid := c.Node("board.mid")
	c.AddResistor("r.board", n.VRM, bmid, cfg.RBoard)
	c.AddInductor("l.board", bmid, n.Board, cfg.LBoard)
	c.AddCapacitor("c.bulk", n.Board, Ground, cfg.CBulk, cfg.CBulkESR)

	pmid := c.Node("pkg.mid")
	c.AddResistor("r.pkg", n.Board, pmid, cfg.RPkg)
	c.AddInductor("l.pkg", pmid, n.Pkg, cfg.LPkg)
	c.AddCapacitor("c.pkg", n.Pkg, Ground, cfg.CPkg, cfg.CPkgESR)

	// Package -> the two on-die domains.
	for d := 0; d < 2; d++ {
		name := string(rune('A' + d))
		dmid := c.Node("dom" + name + ".mid")
		c.AddResistor("r.dom"+name, n.Pkg, dmid, cfg.RDomain)
		c.AddInductor("l.dom"+name, dmid, n.Domain[d], cfg.LDomain)
		c.AddCapacitor("c.dom"+name, n.Domain[d], Ground, cfg.CDomain*cfg.DeepTrenchFactor, 0)
	}

	// Domain -> cores; on-die grid links within each cluster.
	for i := 0; i < NumCores; i++ {
		d := DomainOf(i)
		fmid := c.Node(coreNodeName(i) + ".mid")
		c.AddResistor("r.feed"+coreSuffix(i), n.Domain[d], fmid, cfg.RCoreFeed)
		c.AddInductor("l.feed"+coreSuffix(i), fmid, n.Core[i], cfg.LCoreFeed)
		c.AddCapacitor("c.core"+coreSuffix(i), n.Core[i], Ground, cfg.CCore*cfg.DeepTrenchFactor, 0)
	}
	// Row neighbours: 0-2, 2-4 (upper), 1-3, 3-5 (lower).
	c.AddResistor("r.link02", n.Core[0], n.Core[2], cfg.RCoreLink)
	c.AddResistor("r.link24", n.Core[2], n.Core[4], cfg.RCoreLink)
	c.AddResistor("r.link13", n.Core[1], n.Core[3], cfg.RCoreLink)
	c.AddResistor("r.link35", n.Core[3], n.Core[5], cfg.RCoreLink)

	// The L3 sits between the rows: every core sees it through the
	// on-die grid, and it carries the deep-trench eDRAM decap.
	c.AddCapacitor("c.l3", n.L3, Ground, cfg.CL3*cfg.DeepTrenchFactor, 0)
	if cfg.L3Bridge {
		for i := 0; i < NumCores; i++ {
			c.AddResistor("r.l3"+coreSuffix(i), n.Core[i], n.L3, cfg.RCoreL3)
		}
	} else {
		// Keep the L3 node connected so the DC solve stays regular,
		// but through a resistance high enough to remove its damping
		// role entirely.
		c.AddResistor("r.l3iso", n.Pkg, n.L3, 1.0)
	}

	return c, n
}

func coreNodeName(i int) string { return "core" + string(rune('0'+i)) }
func coreSuffix(i int) string   { return string(rune('0' + i)) }

// ResonantEstimates returns first-order analytic estimates of the two
// resonant bands the preset is calibrated for: the mid-frequency band
// (package decap against its feed inductance) and the first droop
// (total on-die capacitance against the parallel domain feeds). The
// measured impedance peaks sit near these estimates; the deltas come
// from the surrounding network (board inductance participates in the
// mid band, the grid resistances de-tune the droop slightly).
func (cfg ZEC12Config) ResonantEstimates() (midHz, droopHz float64) {
	dieC := cfg.DeepTrenchFactor * (float64(NumCores)*cfg.CCore + 2*cfg.CDomain + cfg.CL3)
	return resonantFrequency(cfg.LPkg, cfg.CPkg), resonantFrequency(cfg.LDomain/2, dieC)
}

// resonantFrequency returns the resonant frequency of an LC pair,
// f = 1/(2π√(LC)). It panics unless L and C are positive.
func resonantFrequency(l, c float64) float64 {
	if l <= 0 || c <= 0 {
		panic("pdn: resonant frequency requires positive L and C")
	}
	return 1 / (2 * math.Pi * math.Sqrt(l*c))
}
