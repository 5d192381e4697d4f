// Benchmarks: one testing.B target per table and figure of the paper.
// Each benchmark regenerates (a reduced-size version of) the
// corresponding experiment and reports the headline quantity as a
// custom metric, so `go test -bench=.` doubles as a smoke
// reproduction. cmd/experiments produces the full-size series.
package voltnoise_test

import (
	"context"
	"sync"
	"testing"

	"voltnoise"
)

var (
	benchOnce sync.Once
	benchLab  *voltnoise.Lab
	benchErr  error
)

// benchSetup builds one shared lab (quick search) for all benchmarks.
func benchSetup(b *testing.B) *voltnoise.Lab {
	b.Helper()
	benchOnce.Do(func() {
		var plat *voltnoise.Platform
		plat, benchErr = voltnoise.NewPlatform(voltnoise.DefaultPlatformConfig())
		if benchErr != nil {
			return
		}
		benchLab, benchErr = voltnoise.NewLab(plat, voltnoise.WithSearch(voltnoise.QuickSearchConfig()))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// BenchmarkTable1EPIProfile regenerates the EPI profile (Table I).
func BenchmarkTable1EPIProfile(b *testing.B) {
	cfg := voltnoise.DefaultEPIConfig()
	cfg.MeasureCycles = 1024
	for i := 0; i < b.N; i++ {
		prof, err := voltnoise.EPIProfile(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if prof.Entries[0].Instr.Mnemonic != "CIB" {
			b.Fatalf("rank 1 = %s", prof.Entries[0].Instr.Mnemonic)
		}
		b.ReportMetric(prof.Entries[0].RelPower, "CIB-relpower")
	}
}

// BenchmarkFig7aFrequencySweep regenerates the unsynchronized noise
// sweep (Figure 7a).
func BenchmarkFig7aFrequencySweep(b *testing.B) {
	lab := benchSetup(b)
	freqs := []float64{35e3, 300e3, 2e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := lab.FrequencySweep(context.Background(), freqs, false, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[2].Worst(), "p2p-at-2MHz")
	}
}

// BenchmarkFig7bImpedance regenerates the impedance profile (Figure 7b).
func BenchmarkFig7bImpedance(b *testing.B) {
	lab := benchSetup(b)
	freqs := voltnoise.LogSpace(1e3, 100e6, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := lab.ImpedanceProfile(freqs)
		if err != nil {
			b.Fatal(err)
		}
		peaks := voltnoise.ImpedancePeaks(prof)
		b.ReportMetric(peaks[0].Freq, "peak-hz")
	}
}

// BenchmarkFig8Waveform regenerates the oscilloscope shot (Figure 8).
func BenchmarkFig8Waveform(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traces, err := lab.Waveform(2e6, 20e-6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(traces[0].PeakToPeak()*1e3, "p2p-mV")
	}
}

// BenchmarkFig9SyncSweep regenerates the synchronized sweep (Figure 9).
func BenchmarkFig9SyncSweep(b *testing.B) {
	lab := benchSetup(b)
	freqs := []float64{35e3, 300e3, 2e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := lab.FrequencySweep(context.Background(), freqs, true, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[2].Worst(), "p2p-at-2MHz")
	}
}

// BenchmarkFig10Misalignment regenerates the misalignment study
// (Figure 10).
func BenchmarkFig10Misalignment(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := lab.MisalignmentSweep(context.Background(), 2e6, []int{0, 4}, 200, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].Worst()-pts[1].Worst(), "sync-boost-p2p")
	}
}

// BenchmarkFig11aDeltaI regenerates the delta-I sensitivity study
// (Figure 11a).
func BenchmarkFig11aDeltaI(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := lab.MappingStudy(context.Background(), 2e6, 20, false)
		if err != nil {
			b.Fatal(err)
		}
		pts := voltnoise.DeltaISensitivity(runs)
		b.ReportMetric(float64(len(pts)), "points")
	}
}

// BenchmarkFig11bDistribution regenerates the workload-distribution
// analysis (Figure 11b).
func BenchmarkFig11bDistribution(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := lab.MappingStudy(context.Background(), 2e6, 20, false)
		if err != nil {
			b.Fatal(err)
		}
		dist := voltnoise.DistributionAnalysis(runs)
		b.ReportMetric(float64(len(dist)), "distributions")
	}
}

// BenchmarkFig12VminMargins regenerates the consecutive-event margin
// study (Figure 12).
func BenchmarkFig12VminMargins(b *testing.B) {
	lab := benchSetup(b)
	vcfg := voltnoise.DefaultVminConfig()
	vcfg.MinBias = 0.90
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := lab.ConsecutiveEventStudy(context.Background(), []float64{2.5e6}, []int{100, 0}, vcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].MarginPercent-pts[0].MarginPercent, "margin-gap-pct")
	}
}

// BenchmarkFig13aCorrelation regenerates the inter-core correlation
// study (Figure 13a).
func BenchmarkFig13aCorrelation(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs, err := lab.MappingStudy(context.Background(), 2e6, 20, false)
		if err != nil {
			b.Fatal(err)
		}
		matrix, clusters := voltnoise.CorrelationStudy(runs)
		if len(clusters) != 2 {
			b.Fatalf("clusters = %v", clusters)
		}
		b.ReportMetric(matrix[0][2], "corr-c0-c2")
	}
}

// BenchmarkFig13bPropagation regenerates the single-core delta-I
// propagation study (Figure 13b).
func BenchmarkFig13bPropagation(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lab.Propagation(0, 30, 5e-6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DroopDepth[2]/res.DroopDepth[1], "mate-vs-opposite")
	}
}

// BenchmarkFig14Mappings regenerates the 3-stressmark mapping example
// (Figure 14).
func BenchmarkFig14Mappings(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := lab.MappingOpportunity(context.Background(), 2e6, 50, []int{3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ops[0].GainP2P, "gain-p2p")
	}
}

// BenchmarkFig15MappingGain regenerates the mapping-opportunity study
// (Figure 15).
func BenchmarkFig15MappingGain(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := lab.MappingOpportunity(context.Background(), 2e6, 50, []int{2, 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ops[1].GainP2P, "gain-at-3")
	}
}

// BenchmarkMaxPowerSearch measures the Section IV-B search pipeline
// (quick configuration; the paper-sized run is exercised by
// cmd/experiments and the stressmark package tests).
func BenchmarkMaxPowerSearch(b *testing.B) {
	cfg := voltnoise.QuickSearchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := voltnoise.FindMaxPowerSequence(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardbandController measures the Section VII-B controller
// replay.
func BenchmarkGuardbandController(b *testing.B) {
	table, err := voltnoise.GuardbandFromDroops(
		[voltnoise.NumCores + 1]float64{0.5, 2, 3, 4, 5, 6, 7}, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := voltnoise.NewGuardbandController(table)
	if err != nil {
		b.Fatal(err)
	}
	trace := []voltnoise.UtilizationPhase{
		{ActiveCores: 1, Duration: 3600},
		{ActiveCores: 4, Duration: 3600},
		{ActiveCores: 6, Duration: 3600},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := voltnoise.ReplayGuardband(ctrl, trace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(s.EnergySavedPercent, "energy-saved-pct")
	}
}

// BenchmarkPlatformRun measures the cost of one platform measurement
// window (the unit of every experiment above).
func BenchmarkPlatformRun(b *testing.B) {
	lab := benchSetup(b)
	var wl [voltnoise.NumCores]voltnoise.Workload
	for i := range wl {
		wl[i] = voltnoise.Steady("bench", 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Duration: 20e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppSuite measures the application-suite envelope validation.
func BenchmarkAppSuite(b *testing.B) {
	lab := benchSetup(b)
	table := voltnoise.ISATable()
	cfg := lab.Platform.Config()
	suite := voltnoise.AppSuite(table)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst := 0.0
		for _, a := range suite {
			w, err := a.Workload(cfg.Core)
			if err != nil {
				b.Fatal(err)
			}
			var wl [voltnoise.NumCores]voltnoise.Workload
			for c := range wl {
				wl[c] = w
			}
			m, err := lab.Platform.Run(voltnoise.RunSpec{Workloads: wl, Start: 0, Duration: 2 * a.Period()})
			if err != nil {
				b.Fatal(err)
			}
			if w, _ := m.WorstP2P(); w > worst {
				worst = w
			}
		}
		b.ReportMetric(worst, "worst-app-p2p")
	}
}

// BenchmarkGeneticSearch measures the GA alternative to the exhaustive
// pipeline.
func BenchmarkGeneticSearch(b *testing.B) {
	gcfg := voltnoise.DefaultGeneticConfig()
	gcfg.Search = voltnoise.QuickSearchConfig()
	gcfg.Population = 20
	gcfg.Generations = 10
	gcfg.Elite = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := voltnoise.EvolveMaxPowerSequence(gcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestPower, "best-W")
	}
}

// benchFrequencySweep is the shared body of the serial/parallel
// frequency-sweep pair: 8 synchronized sweep points, pinned to the
// given worker count (1 = serial path, 0 = one worker per CPU) and
// batch width (1 = one single-lane engine per sweep point, 0 = the
// default lockstep lane width).
func benchFrequencySweep(b *testing.B, workers, batch int) {
	l := *benchSetup(b)
	l.Workers = workers
	l.Batch = batch
	freqs := voltnoise.LogSpace(100e3, 5e6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := l.FrequencySweep(context.Background(), freqs, true, 200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[len(pts)-1].Worst(), "p2p-last")
	}
}

// BenchmarkFrequencySweepSerial and BenchmarkFrequencySweepParallel
// measure the scheduler speedup on the noise sweep. Serial pins one
// worker and lane-per-run batches (eight independent single-lane
// transients, the shape every pre-batching release ran); Parallel lets
// the stolen-chunk scheduler pick the worker count and lane width. Its
// eight points fit one auto-width batch, which exec.BatchWidthAuto
// splits to ceil(8/workers) lanes so that no worker idles: one 8-lane
// batch on one CPU, two 4-lane batches on two, so neither reaches the
// 16-lane shape the sweep workload runs (make profile covers that with
// BenchmarkBatchSessionRun/Lanes16/distinct). Results are
// bit-identical between the two; compare ns/op.
func BenchmarkFrequencySweepSerial(b *testing.B)   { benchFrequencySweep(b, 1, 1) }
func BenchmarkFrequencySweepParallel(b *testing.B) { benchFrequencySweep(b, 0, 0) }

// benchEPIProfile is the shared body of the serial/parallel EPI pair:
// the full 1301-instruction profile at a reduced measurement window.
func benchEPIProfile(b *testing.B, workers int) {
	cfg := voltnoise.DefaultEPIConfig()
	cfg.MeasureCycles, cfg.Workers = 1024, workers
	for i := 0; i < b.N; i++ {
		prof, err := voltnoise.EPIProfile(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(prof.Entries[0].RelPower, "top-relpower")
	}
}

// BenchmarkEPIProfileSerial and BenchmarkEPIProfileParallel measure
// the worker-pool speedup on per-instruction power profiling.
func BenchmarkEPIProfileSerial(b *testing.B)   { benchEPIProfile(b, 1) }
func BenchmarkEPIProfileParallel(b *testing.B) { benchEPIProfile(b, 0) }

// benchPopulationStudy is the shared body of the serial/parallel
// population pair: a heterogeneous aged fleet measured through short
// C-state-exit windows. Serial forces one worker and chip-per-run
// sessions; parallel lets the runner pick workers and pack chips into
// lockstep batch lanes.
func benchPopulationStudy(b *testing.B, workers, batch int) {
	cfg := voltnoise.DefaultPopulationConfig()
	cfg.Chips = 96
	cfg.AgeYears = 5
	cfg.Mix = [6]string{"o3", "io", "o3", "io", "o3", "io"}
	cfg.TechNode = 22
	cfg.ExitHz = 2e6
	cfg.WarmupS = 4e-6
	cfg.RLCBins = 3
	cfg.Seed = 42
	cfg.Workers = workers
	cfg.Batch = batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := voltnoise.RunPopulationStudy(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Guardband.P99, "p99-guardband-%")
	}
}

// BenchmarkPopulationStudySerial and BenchmarkPopulationStudyParallel
// measure the workers×batch speedup on fleet-scale population studies.
func BenchmarkPopulationStudySerial(b *testing.B)   { benchPopulationStudy(b, 1, 1) }
func BenchmarkPopulationStudyParallel(b *testing.B) { benchPopulationStudy(b, 0, 0) }

// BenchmarkResonanceDiscovery measures the automated resonance search
// in the shape of the voltbench resonance workload: an 8-point coarse
// grid over a decade (two 4-lane batches on two workers) refined to a
// 5 % bracket in width-1 pairs.
func BenchmarkResonanceDiscovery(b *testing.B) {
	lab := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freq, _, _, err := lab.FindResonance(context.Background(), 500e3, 5e6, 8, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(freq/1e6, "resonance-MHz")
	}
}
