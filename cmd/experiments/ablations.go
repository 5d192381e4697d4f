package main

import (
	"math/cmplx"
	"os"

	"voltnoise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
)

// Ablation experiments: design-choice studies beyond the paper's
// figures, called out in DESIGN.md. They quantify the modelling
// decisions (deep-trench decap, L3 bridging, envelope execution) and
// compare the paper's deterministic TOD alignment and exhaustive
// search against prior art's probabilistic/genetic baselines.

func ablationExperiments() []experiment {
	return []experiment{
		{"AblDeepTrench", "Deep-trench decap ablation: first droop moves back above 5MHz", runAblDeepTrench},
		{"AblL3", "L3 bridge ablation: cluster isolation without the damping element", runAblL3},
		{"AblEnvelope", "Envelope vs cycle-accurate execution", runAblEnvelope},
		{"AblDither", "Deterministic TOD sync vs AUDIT-style dithering", runAblDither},
		{"AblGenetic", "Exhaustive search vs genetic algorithm", runAblGenetic},
	}
}

func runAblDeepTrench(e *env) error {
	for _, factor := range []float64{1.0, 1.0 / 40} {
		cfg := pdn.DefaultZEC12Config()
		cfg.DeepTrenchFactor = factor
		circuit, nodes := pdn.ZEC12(cfg)
		prof, err := circuit.ImpedanceProfile(nodes.Core[0], pdn.LogSpace(10e3, 500e6, 300))
		if err != nil {
			return err
		}
		peaks := pdn.Peaks(prof)
		top := peaks[0]
		e.printf("deep-trench factor %6.4f: dominant impedance peak at %s (%.3f mOhm)\n",
			factor, hz(top.Freq), cmplx.Abs(top.Z)*1e3)
	}
	e.printf("paper: deep trench raised on-chip capacitance ~40x, moving the first droop from 30-100MHz down to ~2MHz\n")
	return nil
}

func runAblL3(e *env) error {
	for _, bridge := range []bool{true, false} {
		cfg := e.lab.Platform.Config()
		cfg.PDN.L3Bridge = bridge
		plat, err := voltnoise.NewPlatform(cfg)
		if err != nil {
			return err
		}
		lab, err := voltnoise.NewLab(plat, voltnoise.WithSearch(e.lab.Search))
		if err != nil {
			return err
		}
		res, err := lab.Propagation(0, 30, 5e-6)
		if err != nil {
			return err
		}
		ratio := res.DroopDepth[2] / res.DroopDepth[1]
		e.printf("L3 bridge %5v: droop(core2)/droop(core1) = %.3f\n", bridge, ratio)
	}
	e.printf("paper: the L3's large capacitance sits between the clusters and damps cross-cluster noise\n")
	return nil
}

func runAblEnvelope(e *env) error {
	spec := e.lab.MaxSpec(1e6)
	cfg := e.lab.Platform.Config()
	cyc, err := voltnoise.CycleAccurateWorkload(spec, cfg.Core, cfg.Dt)
	if err != nil {
		return err
	}
	env, err := spec.Workload(cfg.Core, voltnoise.ISATable())
	if err != nil {
		return err
	}
	measure := func(w voltnoise.Workload) (float64, error) {
		var wl [voltnoise.NumCores]voltnoise.Workload
		for i := range wl {
			wl[i] = w
		}
		m, err := e.lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Start: 0, Duration: 60e-6})
		if err != nil {
			return 0, err
		}
		worst, _ := m.WorstP2P()
		return worst, nil
	}
	wEnv, err := measure(env)
	if err != nil {
		return err
	}
	wCyc, err := measure(cyc)
	if err != nil {
		return err
	}
	e.printf("envelope execution:       %5.1f %%p2p\n", wEnv)
	e.printf("cycle-accurate execution: %5.1f %%p2p\n", wCyc)
	e.printf("the envelope is a faithful (and ~100x cheaper) reduction for dependency-free stressmarks\n")
	return nil
}

func runAblDither(e *env) error {
	spec := e.lab.MaxSpec(2e6)
	cond := tod.DefaultSync()
	spec.Sync = &cond
	spec.Events = 500
	cfg := e.lab.Platform.Config()
	table := voltnoise.ISATable()

	synced, err := stressmark.SyncWorkloads(spec, cfg.Core, table, nil)
	if err != nil {
		return err
	}
	measure := func(wl [voltnoise.NumCores]voltnoise.Workload, start, dur float64) (float64, error) {
		m, err := e.lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Start: start, Duration: dur})
		if err != nil {
			return 0, err
		}
		w, _ := m.WorstP2P()
		return w, nil
	}
	wSync, err := measure(synced, -10e-6, 80e-6)
	if err != nil {
		return err
	}
	e.printf("deterministic TOD sync:        %5.1f %%p2p (one measurement window)\n", wSync)

	// Dithering: each burst lands at a random offset in a 2us window;
	// worst case only appears when offsets collide, so measure several
	// periods and keep the stickiest reading.
	dithered, err := voltnoise.DitherWorkloads(spec, cfg.Core, 2e-6, 0xD17)
	if err != nil {
		return err
	}
	periods := 4
	if !e.quick {
		periods = 10
	}
	worst := 0.0
	for p := 0; p < periods; p++ {
		w, err := measure(dithered, float64(p)*cond.Period()-10e-6, 80e-6)
		if err != nil {
			return err
		}
		if w > worst {
			worst = w
		}
	}
	e.printf("AUDIT-style dithering:         %5.1f %%p2p (best of %d burst periods)\n", worst, periods)
	e.printf("paper: probabilistic alignment eventually collides, but the deterministic TOD approach reaches the worst case in one shot and controls misalignment exactly\n")
	return nil
}

func runAblGenetic(e *env) error {
	f := e.lab.SearchFunnel
	gcfg := voltnoise.DefaultGeneticConfig()
	gcfg.Search = e.lab.Search
	if e.quick {
		gcfg.Population = 24
		gcfg.Generations = 12
		gcfg.Elite = 3
	}
	ga, err := voltnoise.EvolveMaxPowerSequence(gcfg)
	if err != nil {
		return err
	}
	e.printf("exhaustive pipeline: %s -> %.2f W (%d power evaluations after filtering)\n",
		f.Best.Mnemonics(), f.BestPower, f.AfterIPCFilter)
	e.printf("genetic algorithm:   %s -> %.2f W (%d power evaluations)\n",
		ga.Best.Mnemonics(), ga.BestPower, ga.Evaluations)
	e.printf("paper: the white-box pipeline supersedes GA searches (AUDIT) by making every knob explicit; the GA remains useful when the design space outgrows enumeration\n")
	return nil
}

func extensionExperiments() []experiment {
	return []experiment{
		{"Summary", "Sensitivity summary: relative importance of the four parameters (Section V-F)", runSummary},
		{"CPM", "Critical-path-monitor closed-loop guard-banding", runCPM},
		{"Netlist", "Calibrated PDN netlist and design points", runNetlist},
		{"Apps", "Application suite vs stressmark: noise envelope validation", runApps},
		{"Chips", "Reproducibility across a chip population", runChips},
	}
}

func runSummary(e *env) error {
	s, err := e.lab.Sensitivity(e.ctx, 2e6, 300e3)
	if err != nil {
		return err
	}
	e.printf("%%p2p swing attributable to each parameter (synchronized max stressmark at ~2MHz as the reference):\n")
	e.printf("  delta-I magnitude:        %5.1f\n", s.DeltaIEffect)
	e.printf("  synchronization:          %5.1f\n", s.SyncEffect)
	e.printf("  stimulus frequency:       %5.1f\n", s.FrequencyEffect)
	e.printf("  consecutive events:       %5.1f\n", s.EventsEffect)
	e.printf("primary factors dominate:   %v\n", s.Primary())

	vcfg := voltnoise.DefaultVminConfig()
	vcfg.Workers = e.workers
	vcfg.Batch = e.batch
	vcfg.MinBias = 0.85
	cust, err := e.lab.CustomerCodeMargin(e.ctx, 2e6, vcfg)
	if err != nil {
		return err
	}
	e.printf("worst-case customer-code reference line (80%% delta-I, unsynchronized): %.1f%% margin\n", cust.MarginPercent)
	e.printf("paper: delta-I and synchronization are the main contributors; events and frequency secondary; customer code leaves plenty of margin\n")
	return nil
}

func runCPM(e *env) error {
	// Closed loop against the live platform: each control interval
	// measures the running workload's deepest droop at the current
	// setpoint, then the CPM trims or snaps back. A customer-like
	// workload (medium delta-I, unsynchronized) leaves headroom the
	// loop can recover; the worst-case synchronized stressmark would
	// pin the loop at nominal — exactly the bound the paper's
	// characterization provides.
	cfg := voltnoise.DefaultCPMConfig()
	ctrl, err := voltnoise.NewCPMController(cfg)
	if err != nil {
		return err
	}
	spec := e.lab.MedSpec(2e6)
	wl, err := stressmark.UnsyncWorkloads(spec, e.lab.Platform.Config().Core, voltnoise.ISATable())
	if err != nil {
		return err
	}
	defer e.lab.Platform.SetVoltageBias(1.0)
	bias := ctrl.Bias()
	intervals := 0
	for ; intervals < 40 && !ctrl.Settled(); intervals++ {
		if err := e.lab.Platform.SetVoltageBias(bias); err != nil {
			return err
		}
		m, err := e.lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Start: 0, Duration: 60e-6})
		if err != nil {
			return err
		}
		bias = ctrl.Observe(m.MinVoltage())
	}
	e.printf("closed loop settled after %d intervals at bias %.3f (%d safety trips)\n",
		intervals, ctrl.Bias(), ctrl.Trips())
	e.printf("static worst-case margin would hold bias 1.000; the CPM recovers %.1f%% while honoring a %.0f mV headroom above the failure threshold\n",
		(1-ctrl.Bias())*100, cfg.TargetHeadroom*1e3)
	e.printf("paper: critical path monitors reap lower-noise periods automatically; the utilization table bounds their dynamic range\n")
	return nil
}

func runNetlist(e *env) error {
	circuit, _ := pdn.ZEC12(e.lab.Platform.Config().PDN)
	s := circuit.Summary()
	e.printf("calibrated zEC12-like PDN: %d nodes, %d R, %d L, %d C (%.0f uF total on-network capacitance)\n",
		s.Nodes, s.Resistors, s.Inductors, s.Capacitors, s.TotalCapacitance*1e6)
	mid, droop := e.lab.Platform.Config().PDN.ResonantEstimates()
	e.printf("first-order design points: mid band ~%s, first droop ~%s\n", hz(mid), hz(droop))
	if e.csvDir != "" {
		deck := circuit.Netlist("voltnoise calibrated zEC12-like PDN")
		path := e.csvDir + "/pdn.spice"
		if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
			return err
		}
		e.printf("SPICE deck written to %s\n", path)
	} else {
		e.printf("run with -csv DIR to dump the SPICE deck\n")
	}
	return nil
}

func runApps(e *env) error {
	cfg := e.lab.Platform.Config()
	table := voltnoise.ISATable()
	e.printf("%-16s %10s %12s\n", "workload", "mean W", "worst %p2p")
	worstApp := 0.0
	for _, a := range voltnoise.AppSuite(table) {
		w, err := a.Workload(cfg.Core)
		if err != nil {
			return err
		}
		var wl [voltnoise.NumCores]voltnoise.Workload
		for i := range wl {
			wl[i] = w
		}
		m, err := e.lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Start: 0, Duration: 3 * a.Period()})
		if err != nil {
			return err
		}
		worst, _ := m.WorstP2P()
		if worst > worstApp {
			worstApp = worst
		}
		e.printf("%-16s %10.1f %12.1f\n", a.Name, a.MeanPower(cfg.Core), worst)
	}
	mark, err := e.lab.RunWorstMark()
	if err != nil {
		return err
	}
	e.printf("%-16s %10.1f %12.1f\n", "max stressmark", cfg.Core.Power(e.lab.MaxSeq), mark)
	e.printf("headroom: the stressmark exceeds the worst application by %.1f points (the paper's ~20%% rule)\n", mark-worstApp)
	return nil
}

func runChips(e *env) error {
	// The paper: "experiments have been run on different processors
	// multiple times to check their reproducibility". Measure the
	// headline comparison (sync vs unsync at resonance) on a small
	// chip population and verify the conclusion holds on every chip.
	n := 3
	if !e.quick {
		n = 5
	}
	plats, err := voltnoise.ChipPopulation(e.ctx, voltnoise.DefaultPlatformConfig(), n, e.workers)
	if err != nil {
		return err
	}
	e.printf("%-6s %12s %12s %14s %8s\n", "chip", "unsync p2p", "sync p2p", "sync Vmin (V)", "ratio")
	for id, plat := range plats {
		lab, err := voltnoise.NewLab(plat, voltnoise.WithSearch(e.lab.Search))
		if err != nil {
			return err
		}
		u, err := lab.FrequencySweep(e.ctx, []float64{2e6}, false, 0)
		if err != nil {
			return err
		}
		s, err := lab.FrequencySweep(e.ctx, []float64{2e6}, true, 1000)
		if err != nil {
			return err
		}
		// The continuous observable (deepest droop) shows the chip-to-
		// chip spread the tap-quantized %p2p readings may hide.
		spec := lab.MaxSpec(2e6)
		cond := voltnoise.DefaultSync()
		spec.Sync = &cond
		spec.Events = 200
		wl, err := stressmark.SyncWorkloads(spec, plat.Config().Core, voltnoise.ISATable(), nil)
		if err != nil {
			return err
		}
		m, err := plat.Run(voltnoise.RunSpec{Workloads: wl, Start: -10e-6, Duration: 80e-6})
		if err != nil {
			return err
		}
		e.printf("%-6d %12.1f %12.1f %14.4f %8.2f\n", id, u[0].Worst(), s[0].Worst(), m.MinVoltage(), s[0].Worst()/u[0].Worst())
	}
	e.printf("paper: results reproduce across CP chips; absolute levels shift with process variation, conclusions do not\n")
	return nil
}
