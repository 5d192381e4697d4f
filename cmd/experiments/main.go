// Command experiments regenerates every table and figure of the
// paper's evaluation on the simulated platform.
//
// Usage:
//
//	experiments [-run Table1,Fig7a,...] [-quick] [-csv dir]
//
// Without -run, all experiments run in paper order. -quick substitutes
// reduced sweep sizes (useful for smoke testing); -csv additionally
// writes each data series to <dir>/<id>.csv.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"voltnoise"
)

type experiment struct {
	id    string
	title string
	run   func(*env) error
}

type env struct {
	ctx    context.Context
	lab    *voltnoise.Lab
	quick  bool
	csvDir string
	out    io.Writer
	// workers is the -workers flag: the measurement worker cap handed
	// to every study and Vmin config.
	workers int
	// batch is the -batch flag: the lockstep batch lane width handed
	// to every study and Vmin config.
	batch int

	// mappingStudy caches the (expensive) exhaustive mapping dataset
	// shared by Fig11a, Fig11b and Fig13a.
	mappingCache []voltnoise.MappingRun
}

// mappingStudy returns the shared mapping dataset, computing it once.
func (e *env) mappingStudy() ([]voltnoise.MappingRun, error) {
	if e.mappingCache == nil {
		runs, err := e.lab.MappingStudy(e.ctx, 2e6, 50, !e.quick)
		if err != nil {
			return nil, err
		}
		e.mappingCache = runs
	}
	return e.mappingCache, nil
}

func (e *env) printf(format string, args ...any) {
	fmt.Fprintf(e.out, format, args...)
}

// csv writes a data series when -csv was given.
func (e *env) csv(id string, header string, rows [][]float64) {
	if e.csvDir == "" {
		return
	}
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, row := range rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	path := filepath.Join(e.csvDir, id+".csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runList := fs.String("run", "", "comma-separated experiment ids (default: all)")
	quick := fs.Bool("quick", false, "reduced sweep sizes")
	csvDir := fs.String("csv", "", "directory for CSV output")
	workers := fs.Int("workers", 0, "parallel measurement workers (0 = one per CPU, 1 = serial); results are bit-identical for every setting")
	batch := fs.Int("batch", 0, "lockstep batch lane width (0 = auto, 1 = lane-per-run); results are bit-identical for every setting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	experiments := []experiment{
		{"Table1", "EPI profile: first and last five instructions", runTable1},
		{"Fig7a", "Noise sensitivity to stimulus frequency (unsynchronized)", runFig7a},
		{"Fig7b", "Post-silicon impedance profile", runFig7b},
		{"Fig8", "Oscilloscope shot of the ~2MHz stressmark", runFig8},
		{"Fig9", "Noise sensitivity to stimulus frequency (synchronized)", runFig9},
		{"Fig10", "Noise sensitivity to misalignment", runFig10},
		{"Fig11a", "Noise sensitivity to delta-I", runFig11a},
		{"Fig11b", "Noise by workload distribution", runFig11b},
		{"Fig12", "Available margin vs consecutive delta-I events", runFig12},
		{"Fig13a", "Inter-core noise correlation", runFig13a},
		{"Fig13b", "Noise propagation from a single-core delta-I event", runFig13b},
		{"Fig14", "Best/worst mapping of 3 stressmarks", runFig14},
		{"Fig15", "Noise-aware workload mapping opportunity", runFig15},
		{"Funnel", "Stressmark search pipeline funnel (Section IV-B)", runFunnel},
		{"Guardband", "Utilization-based dynamic guard-banding (Section VII-B)", runGuardband},
	}
	experiments = append(experiments, extensionExperiments()...)
	experiments = append(experiments, ablationExperiments()...)

	selected := map[string]bool{}
	if *runList != "" {
		for _, id := range strings.Split(*runList, ",") {
			selected[strings.TrimSpace(id)] = true
		}
		for id := range selected {
			if !hasExperiment(experiments, id) {
				return fmt.Errorf("unknown id %q; known: %s", id, idList(experiments))
			}
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	e := &env{ctx: ctx, quick: *quick, csvDir: *csvDir, out: out, workers: *workers, batch: *batch}
	scfg := voltnoise.DefaultSearchConfig()
	if *quick {
		scfg = voltnoise.QuickSearchConfig()
	}
	scfg.Parallelism = *workers
	start := time.Now()
	plat, err := voltnoise.NewPlatform(voltnoise.DefaultPlatformConfig())
	if err != nil {
		return err
	}
	lab, err := voltnoise.NewLab(plat, voltnoise.WithSearch(scfg))
	if err != nil {
		return err
	}
	lab.Workers = *workers
	lab.Batch = *batch
	e.lab = lab
	e.printf("platform ready in %v (max-power sequence: %s, %.1f W)\n\n",
		time.Since(start).Round(time.Millisecond), lab.MaxSeq.Mnemonics(),
		lab.Search.Core.Power(lab.MaxSeq))

	for _, exp := range experiments {
		if len(selected) > 0 && !selected[exp.id] {
			continue
		}
		t0 := time.Now()
		e.printf("=== %s: %s ===\n", exp.id, exp.title)
		if err := exp.run(e); err != nil {
			return fmt.Errorf("%s: %w", exp.id, err)
		}
		e.printf("(%s in %v)\n\n", exp.id, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

func hasExperiment(exps []experiment, id string) bool {
	for _, e := range exps {
		if e.id == id {
			return true
		}
	}
	return false
}

func idList(exps []experiment) string {
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.id
	}
	return strings.Join(ids, ",")
}

func runTable1(e *env) error {
	opts := []voltnoise.EPIOption{voltnoise.EPIWorkers(e.workers)}
	if e.quick {
		opts = append(opts, voltnoise.EPIMeasureCycles(1024))
	}
	prof, err := voltnoise.EPIProfile(e.ctx, opts...)
	if err != nil {
		return err
	}
	e.printf("%s", prof.TableI(5))
	e.printf("paper: CIB 1.58 / CRB 1.57 / BXHG 1.57 / CGIB 1.55 / CHHSI 1.55 ... DDTRA 1.01 / MXTRA 1.01 / MDTRA 1.00 / STCK 1.00 / SRNM 1.00\n")
	return nil
}

func sweepFreqs(quick bool) []float64 {
	if quick {
		return []float64{10e3, 35e3, 300e3, 2e6, 10e6}
	}
	return voltnoise.LogSpace(1e3, 20e6, 36)
}

func runFig7a(e *env) error {
	pts, err := e.lab.FrequencySweep(e.ctx, sweepFreqs(e.quick), false, 0)
	if err != nil {
		return err
	}
	e.printf("%-12s %6s %6s %6s %6s %6s %6s  %s\n", "stimulus", "c0", "c1", "c2", "c3", "c4", "c5", "worst")
	var rows [][]float64
	for _, p := range pts {
		e.printf("%-12s %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f  %5.1f\n",
			hz(p.Freq), p.P2P[0], p.P2P[1], p.P2P[2], p.P2P[3], p.P2P[4], p.P2P[5], p.Worst())
		rows = append(rows, append([]float64{p.Freq}, p.P2P[:]...))
	}
	e.csv("fig7a", "freq_hz,c0,c1,c2,c3,c4,c5", rows)
	e.printf("paper: resonant bands near 40kHz and 2MHz; max ~41%%p2p on cores 2/4 at ~2MHz\n")
	return nil
}

func runFig7b(e *env) error {
	n := 200
	if e.quick {
		n = 60
	}
	prof, err := e.lab.ImpedanceProfile(voltnoise.LogSpace(1e3, 100e6, n))
	if err != nil {
		return err
	}
	peaks := voltnoise.ImpedancePeaks(prof)
	var rows [][]float64
	for _, p := range prof {
		rows = append(rows, []float64{p.Freq, p.Mag() * 1e3})
	}
	e.csv("fig7b", "freq_hz,z_mohm", rows)
	e.printf("%-12s %10s\n", "freq", "|Z| mOhm")
	for i := 0; i < len(prof); i += len(prof) / 12 {
		e.printf("%-12s %10.3f\n", hz(prof[i].Freq), prof[i].Mag()*1e3)
	}
	for i, p := range peaks {
		if i >= 2 {
			break
		}
		e.printf("peak %d: %s at %.3f mOhm\n", i+1, hz(p.Freq), p.Mag()*1e3)
	}
	e.printf("paper: impedance peaks in the ~40kHz and ~2MHz bands, matching Fig7a\n")
	return nil
}

func runFig8(e *env) error {
	dur := 20e-6
	traces, err := e.lab.Waveform(2e6, dur)
	if err != nil {
		return err
	}
	t := traces[0]
	e.printf("core 0 voltage over %s: min %.4f V, max %.4f V, p2p %.1f mV\n",
		sec(dur), t.Min(), t.Max(), t.PeakToPeak()*1e3)
	// ASCII rendering of one period.
	period := t.Slice(0, int(0.5e-6/t.Dt)+1)
	renderTrace(e, period, 12, 64)
	var rows [][]float64
	step := t.Len() / 2000
	if step < 1 {
		step = 1
	}
	for i := 0; i < t.Len(); i += step {
		rows = append(rows, []float64{t.Time(i), t.Samples[i]})
	}
	e.csv("fig8", "time_s,v_core0", rows)
	e.printf("paper: repeating sinusoidal form at the stimulus frequency with large p2p variation\n")
	return nil
}

func runFig9(e *env) error {
	pts, err := e.lab.FrequencySweep(e.ctx, sweepFreqs(e.quick), true, 1000)
	if err != nil {
		return err
	}
	e.printf("%-12s %6s %6s %6s %6s %6s %6s  %s\n", "stimulus", "c0", "c1", "c2", "c3", "c4", "c5", "worst")
	var rows [][]float64
	for _, p := range pts {
		e.printf("%-12s %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f  %5.1f\n",
			hz(p.Freq), p.P2P[0], p.P2P[1], p.P2P[2], p.P2P[3], p.P2P[4], p.P2P[5], p.Worst())
		rows = append(rows, append([]float64{p.Freq}, p.P2P[:]...))
	}
	e.csv("fig9", "freq_hz,c0,c1,c2,c3,c4,c5", rows)
	e.printf("paper: synchronization raises noise across the whole spectrum (~+20 points; max ~61%%p2p)\n")
	return nil
}

func runFig10(e *env) error {
	ticks := []int{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16}
	placements := 20
	if e.quick {
		ticks = []int{0, 1, 4, 8}
		placements = 4
	}
	pts, err := e.lab.MisalignmentSweep(e.ctx, 2e6, ticks, 500, placements)
	if err != nil {
		return err
	}
	e.printf("%-18s %10s %10s\n", "max misalignment", "worst p2p", "placements")
	var rows [][]float64
	for _, p := range pts {
		e.printf("%-18s %10.1f %10d\n", sec(float64(p.MaxTicks)*voltnoise.TODTickSeconds), p.Worst(), p.Placements)
		rows = append(rows, []float64{float64(p.MaxTicks) * voltnoise.TODTickSeconds, p.Worst()})
	}
	e.csv("fig10", "max_misalign_s,worst_p2p", rows)
	e.printf("paper: a small misalignment collapses the synchronization boost toward unsynchronized levels\n")
	e.printf("model note: in this linear-envelope model the collapse completes by ~1/4 stimulus period rather than within one 62.5ns tick; see EXPERIMENTS.md\n")
	return nil
}

func runFig11a(e *env) error {
	runs, err := e.mappingStudy()
	if err != nil {
		return err
	}
	pts := voltnoise.DeltaISensitivity(runs)
	e.printf("%-8s %5s %10s %12s\n", "deltaI%", "core", "max p2p", "min #cores")
	var rows [][]float64
	for _, p := range pts {
		if p.Core == 0 || p.DeltaIPercent == 100 { // keep the listing compact
			e.printf("%-8.1f %5d %10.1f %12d\n", p.DeltaIPercent, p.Core, p.MaxP2P, p.MinActiveCores)
		}
		rows = append(rows, []float64{p.DeltaIPercent, float64(p.Core), p.MaxP2P, float64(p.MinActiveCores)})
	}
	e.csv("fig11a", "delta_i_pct,core,max_p2p,min_active_cores", rows)
	e.printf("paper: noise grows with the amount of delta-I; bounded by the number of active cores\n")
	return nil
}

func runFig11b(e *env) error {
	runs, err := e.mappingStudy()
	if err != nil {
		return err
	}
	dist := voltnoise.DistributionAnalysis(runs)
	e.printf("%-10s %8s %10s %9s\n", "max-med", "deltaI%", "avg p2p", "mappings")
	var rows [][]float64
	for _, d := range dist {
		e.printf("%d-%-8d %8.1f %10.2f %9d\n", d.MaxMarks, d.MediumMarks, d.DeltaIPercent, d.AvgP2P, d.Mappings)
		rows = append(rows, []float64{float64(d.MaxMarks), float64(d.MediumMarks), d.DeltaIPercent, d.AvgP2P})
	}
	e.csv("fig11b", "max_marks,med_marks,delta_i_pct,avg_p2p", rows)
	e.printf("paper: what matters is the amount of delta-I, not how it is spread (weak trend: spread is slightly noisier)\n")
	return nil
}

func runFig12(e *env) error {
	freqs := []float64{1e3, 35e3, 320e3, 2.5e6, 20e6}
	events := []int{1, 10, 100, 1000, 0} // 0 = no sync
	if e.quick {
		freqs = []float64{2.5e6}
		events = []int{10, 0}
	}
	vcfg := voltnoise.DefaultVminConfig()
	vcfg.Workers = e.workers
	vcfg.Batch = e.batch
	vcfg.MinBias = 0.88
	pts, err := e.lab.ConsecutiveEventStudy(e.ctx, freqs, events, vcfg)
	if err != nil {
		return err
	}
	e.printf("%-12s %8s %14s\n", "stimulus", "events", "margin %")
	var rows [][]float64
	for _, p := range pts {
		ev := fmt.Sprintf("%d", p.Events)
		if p.Events == 0 {
			ev = "inf/nosync"
		}
		e.printf("%-12s %8s %14.1f\n", hz(p.Freq), ev, p.MarginPercent)
		rows = append(rows, []float64{p.Freq, float64(p.Events), p.MarginPercent})
	}
	e.csv("fig12", "freq_hz,events,margin_pct", rows)
	// The paper's reference line: worst-case typical customer code
	// (80% delta-I, unsynchronized).
	cust, err := e.lab.CustomerCodeMargin(e.ctx, 2.5e6, vcfg)
	if err != nil {
		return err
	}
	e.printf("%-12s %8s %14.1f  (reference line: 80%% delta-I, unsynchronized)\n", "customer", "-", cust.MarginPercent)
	e.printf("paper: synchronized bursts leave 0-2%% margin regardless of event count and frequency; unsynchronized leaves 5-7%%\n")
	e.printf("model note: single-event bursts leave more margin here than on silicon; see EXPERIMENTS.md\n")
	return nil
}

func runFig13a(e *env) error {
	runs, err := e.mappingStudy()
	if err != nil {
		return err
	}
	matrix, clusters := voltnoise.CorrelationStudy(runs)
	e.printf("      ")
	for j := 0; j < voltnoise.NumCores; j++ {
		e.printf("  core%d", j)
	}
	e.printf("\n")
	var rows [][]float64
	for i := 0; i < voltnoise.NumCores; i++ {
		e.printf("core%d ", i)
		row := make([]float64, 0, voltnoise.NumCores)
		for j := 0; j < voltnoise.NumCores; j++ {
			e.printf("  %.3f", matrix[i][j])
			row = append(row, matrix[i][j])
		}
		e.printf("\n")
		rows = append(rows, row)
	}
	e.csv("fig13a", "c0,c1,c2,c3,c4,c5", rows)
	e.printf("clusters: %v\n", clusters)
	e.printf("paper: all correlations > 0.91; clusters {0,2,4} and {1,3,5} (the chip's two rows / voltage domains)\n")
	return nil
}

func runFig13b(e *env) error {
	res, err := e.lab.Propagation(0, 30, 5e-6)
	if err != nil {
		return err
	}
	e.printf("%-6s %12s %12s\n", "core", "droop (mV)", "arrival (ns)")
	var rows [][]float64
	for i := 0; i < voltnoise.NumCores; i++ {
		e.printf("core%d  %12.2f %12.1f\n", i, res.DroopDepth[i]*1e3, res.ArrivalTime[i]*1e9)
		rows = append(rows, []float64{float64(i), res.DroopDepth[i] * 1e3, res.ArrivalTime[i] * 1e9})
	}
	e.csv("fig13b", "core,droop_mv,arrival_ns", rows)
	e.printf("paper: noise from core 0 reaches cores 2 and 4 faster and more strongly than cores 1, 3, 5\n")
	return nil
}

func runFig14(e *env) error {
	ops, err := e.lab.MappingOpportunity(e.ctx, 2e6, 50, []int{3})
	if err != nil {
		return err
	}
	op := ops[0]
	e.printf("best mapping:  cores %v, worst-case %.1f %%p2p on core %d\n", op.Best.Cores, op.Best.WorstP2P, op.Best.WorstCore)
	e.printf("worst mapping: cores %v, worst-case %.1f %%p2p on core %d\n", op.Worst.Cores, op.Worst.WorstP2P, op.Worst.WorstCore)
	e.printf("paper: best 24.6 %%p2p (cores 1,4,5) vs worst 28.2 %%p2p (one cluster)\n")
	return nil
}

func runFig15(e *env) error {
	ks := []int{1, 2, 3, 4, 5, 6}
	if e.quick {
		ks = []int{2, 3}
	}
	ops, err := e.lab.MappingOpportunity(e.ctx, 2e6, 50, ks)
	if err != nil {
		return err
	}
	e.printf("%-10s %12s %12s %10s\n", "workloads", "best worst", "worst worst", "gain")
	var rows [][]float64
	for _, op := range ops {
		e.printf("%-10d %12.1f %12.1f %10.1f\n", op.Workloads, op.Best.WorstP2P, op.Worst.WorstP2P, op.GainP2P)
		rows = append(rows, []float64{float64(op.Workloads), op.Best.WorstP2P, op.Worst.WorstP2P, op.GainP2P})
	}
	e.csv("fig15", "workloads,best_worst_p2p,worst_worst_p2p,gain_p2p", rows)
	e.printf("paper: 2-3 %%p2p reduction available at 2-4 workloads; less at the extremes\n")
	return nil
}

func runFunnel(e *env) error {
	f := e.lab.SearchFunnel
	e.printf("candidates: %d\n", len(f.Candidates))
	for _, c := range f.Candidates {
		e.printf("  %-10s %-4v %s\n", c.Mnemonic, c.Unit, c.Desc)
	}
	e.printf("generated: %d -> after uarch filter: %d -> after IPC filter: %d -> winner: %s (%.1f W)\n",
		f.Generated, f.AfterUarchFilter, f.AfterIPCFilter, f.Best.Mnemonics(), f.BestPower)
	e.printf("paper: 9 candidates, 9^6 = 531441 -> ~32000 -> 1000 -> 1\n")
	return nil
}

func runGuardband(e *env) error {
	// Derive the margin table from the mapping study's worst droops by
	// active-core count.
	runs, err := e.lab.MappingStudy(e.ctx, 2e6, 50, false)
	if err != nil {
		return err
	}
	worstDroop := voltnoise.WorstDroops(runs, e.lab.Platform.NominalVoltage())
	table, err := voltnoise.GuardbandFromDroops(worstDroop, 1.0)
	if err != nil {
		return err
	}
	ctrl, err := voltnoise.NewGuardbandController(table)
	if err != nil {
		return err
	}
	e.printf("%-14s %10s %8s\n", "active cores", "margin %", "bias")
	for n := 0; n <= voltnoise.NumCores; n++ {
		bias, _ := ctrl.SetActiveCores(n)
		e.printf("%-14d %10.2f %8.3f\n", n, table.MarginPercent[n], bias)
	}
	// A bursty daily utilization profile.
	trace := []voltnoise.UtilizationPhase{
		{ActiveCores: 1, Duration: 6 * 3600},
		{ActiveCores: 3, Duration: 8 * 3600},
		{ActiveCores: 6, Duration: 4 * 3600},
		{ActiveCores: 2, Duration: 6 * 3600},
	}
	s, err := voltnoise.ReplayGuardband(ctrl, trace)
	if err != nil {
		return err
	}
	e.printf("24h utilization replay: mean bias %.3f, dynamic energy saved %.1f%% vs static worst-case margin\n",
		s.MeanBias, s.EnergySavedPercent)
	e.printf("paper: potential huge impact on energy efficiency when the system is not fully utilized\n")
	return nil
}

// renderTrace draws a rough ASCII plot.
func renderTrace(e *env, t *voltnoise.Trace, height, width int) {
	min, max := t.Min(), t.Max()
	if max == min {
		max = min + 1e-9
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		idx := c * (t.Len() - 1) / (width - 1)
		v := t.Samples[idx]
		r := int((max - v) / (max - min) * float64(height-1))
		grid[r][c] = '*'
	}
	for r, line := range grid {
		label := "        "
		if r == 0 {
			label = fmt.Sprintf("%.3fV ", max)
		}
		if r == height-1 {
			label = fmt.Sprintf("%.3fV ", min)
		}
		e.printf("%8s|%s\n", label, line)
	}
}

func hz(f float64) string {
	switch {
	case f >= 1e6:
		return fmt.Sprintf("%.3gMHz", f/1e6)
	case f >= 1e3:
		return fmt.Sprintf("%.3gkHz", f/1e3)
	default:
		return fmt.Sprintf("%.3gHz", f)
	}
}

func sec(s float64) string {
	switch {
	case s >= 1e-3:
		return fmt.Sprintf("%.3gms", s*1e3)
	case s >= 1e-6:
		return fmt.Sprintf("%.3gus", s*1e6)
	default:
		return fmt.Sprintf("%.3gns", s*1e9)
	}
}
