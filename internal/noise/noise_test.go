package noise

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"voltnoise/internal/core"
	"voltnoise/internal/pdn"
	"voltnoise/internal/progress"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/vmin"
)

var (
	labOnce sync.Once
	labVal  *Lab
	labErr  error
)

// lab builds one shared lab with a reduced (fast) sequence search; the
// resulting sequences still saturate dispatch, so noise levels match
// the full search closely.
func lab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		scfg := stressmark.DefaultSearchConfig()
		scfg.SeqLen = 3
		scfg.NumCandidates = 5
		scfg.KeepTopIPC = 50
		scfg.EvalCycles = 1024
		plat, err := core.New(core.DefaultConfig())
		if err != nil {
			labErr = err
			return
		}
		labVal, labErr = New(plat, WithSearch(scfg))
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return labVal
}

func TestNewLabSequences(t *testing.T) {
	l := lab(t)
	cfg := l.Search.Core
	pMax := cfg.Power(l.MaxSeq)
	pMin := cfg.Power(l.MinSeq)
	pMed := cfg.Power(l.MedSeq)
	if !(pMax > pMed && pMed > pMin) {
		t.Errorf("sequence powers not ordered: %g, %g, %g", pMax, pMed, pMin)
	}
	if math.Abs(pMed-(pMax+pMin)/2) > 0.5 {
		t.Errorf("medium power %g not at midpoint of [%g, %g]", pMed, pMin, pMax)
	}
	if l.SearchFunnel == nil || l.SearchFunnel.Generated == 0 {
		t.Error("search funnel missing")
	}
}

func TestFrequencySweepResonanceAndSyncBoost(t *testing.T) {
	l := lab(t)
	freqs := []float64{500e3, 2e6}
	unsync, err := l.FrequencySweep(context.Background(), freqs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if unsync[1].Worst() <= unsync[0].Worst() {
		t.Errorf("no resonance: 2MHz %g <= 500kHz %g", unsync[1].Worst(), unsync[0].Worst())
	}
	synced, err := l.FrequencySweep(context.Background(), freqs, true, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		if synced[i].Worst() <= unsync[i].Worst() {
			t.Errorf("sync did not raise noise at %g: %g vs %g",
				freqs[i], synced[i].Worst(), unsync[i].Worst())
		}
	}
	// Paper's headline levels at the droop resonance: ~41% unsync,
	// ~61% sync, worst on core 2 or 4.
	if w := unsync[1].Worst(); w < 30 || w > 50 {
		t.Errorf("unsync resonant noise %g, want ~41", w)
	}
	if w := synced[1].Worst(); w < 52 || w > 72 {
		t.Errorf("sync resonant noise %g, want ~61", w)
	}
	worstCore := 0
	for c, v := range synced[1].P2P {
		if v > synced[1].P2P[worstCore] {
			worstCore = c
		}
	}
	if worstCore != 2 && worstCore != 4 {
		t.Errorf("worst core %d, want 2 or 4 (process variation)", worstCore)
	}
}

func TestFrequencySweepRejectsBadFreq(t *testing.T) {
	l := lab(t)
	if _, err := l.FrequencySweep(context.Background(), []float64{0}, false, 0); err == nil {
		t.Error("zero frequency accepted")
	}
}

func TestImpedanceProfileBands(t *testing.T) {
	l := lab(t)
	prof, err := l.ImpedanceProfile(pdn.LogSpace(1e3, 50e6, 200))
	if err != nil {
		t.Fatal(err)
	}
	peaks := pdn.Peaks(prof)
	if len(peaks) < 2 {
		t.Fatalf("%d peaks", len(peaks))
	}
}

func TestWaveformShowsStimulusOscillation(t *testing.T) {
	l := lab(t)
	traces, err := l.Waveform(2e6, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Figure 8: a repeating ~2 MHz sinusoidal form. The
	// frequency is the number of periods between the first and the
	// last upward mean crossing over the time between them, each
	// crossing placed by linear interpolation between samples. The
	// 20 µs window holds 40 periods and no single period strays more
	// than 1 % from 2 MHz, so their average must land within 1 %.
	tr := traces[0]
	mean := 0.0
	for _, v := range tr.Samples {
		mean += v
	}
	mean /= float64(tr.Len())
	var ups []float64
	for i := 1; i < tr.Len(); i++ {
		if a, b := tr.Samples[i-1], tr.Samples[i]; a < mean && b >= mean {
			ups = append(ups, tr.Time(i-1)+tr.Dt*(mean-a)/(b-a))
		}
	}
	if len(ups) < 30 {
		t.Fatalf("%d upward mean crossings in 20 µs, want ~40", len(ups))
	}
	f := float64(len(ups)-1) / (ups[len(ups)-1] - ups[0])
	if math.Abs(f-2e6) > 20e3 {
		t.Errorf("oscillation frequency %g Hz, want 2 MHz ± 20 kHz", f)
	}
	if traces[0].PeakToPeak() < 0.02 {
		t.Errorf("waveform p2p %g V too small", traces[0].PeakToPeak())
	}
}

func TestMisalignmentSweepReducesNoise(t *testing.T) {
	l := lab(t)
	pts, err := l.MisalignmentSweep(context.Background(), 2e6, []int{0, 4, 8}, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].MaxTicks != 0 || pts[0].Placements != 1 {
		t.Errorf("aligned point: %+v", pts[0])
	}
	// Aligned is worst; a half-period spread (4 ticks = 250ns at 2MHz)
	// must reduce noise substantially.
	if pts[1].Worst() >= pts[0].Worst() {
		t.Errorf("misalignment did not reduce noise: %g vs %g", pts[1].Worst(), pts[0].Worst())
	}
	if pts[2].Worst() > pts[0].Worst() {
		t.Errorf("wide misalignment above aligned: %g vs %g", pts[2].Worst(), pts[0].Worst())
	}
}

func TestEvenOffsets(t *testing.T) {
	if got := evenOffsets(0); got[5] != 0 {
		t.Errorf("evenOffsets(0) = %v", got)
	}
	// 1 tick: half at 0, half at 1.
	got := evenOffsets(1)
	zero, one := 0, 0
	for _, o := range got {
		switch o {
		case 0:
			zero++
		case 1:
			one++
		default:
			t.Fatalf("unexpected offset %d", o)
		}
	}
	if zero != 3 || one != 3 {
		t.Errorf("evenOffsets(1) = %v", got)
	}
	// 2 ticks: pairs at 0, 1, 2 (the paper's 125ns example).
	got = evenOffsets(2)
	counts := map[uint64]int{}
	for _, o := range got {
		counts[o]++
	}
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Errorf("evenOffsets(2) = %v", got)
	}
	// Range is always respected.
	for _, m := range []int{3, 5, 7, 16} {
		for _, o := range evenOffsets(m) {
			if o > uint64(m) {
				t.Errorf("evenOffsets(%d) contains %d", m, o)
			}
		}
	}
}

func TestDistinctPermutations(t *testing.T) {
	perms := distinctPermutations([]uint64{0, 0, 1})
	if len(perms) != 3 {
		t.Errorf("%d permutations of {0,0,1}, want 3", len(perms))
	}
	perms = distinctPermutations([]uint64{0, 0, 0, 1, 1, 1})
	if len(perms) != 20 {
		t.Errorf("%d permutations of {0^3,1^3}, want 20", len(perms))
	}
	// Subsampling keeps exactly n.
	if got := subsample(perms, 7); len(got) != 7 {
		t.Errorf("subsample kept %d", len(got))
	}
	if got := subsample(perms, 100); len(got) != 20 {
		t.Errorf("subsample extended to %d", len(got))
	}
}

func TestMappingStudyAndCondensations(t *testing.T) {
	l := lab(t)
	runs, err := l.MappingStudy(context.Background(), 2e6, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 20 {
		t.Fatalf("reduced study produced %d runs", len(runs))
	}
	// Noise grows with delta-I: compare the all-idle-ish low end with
	// the all-max end.
	var low, high *MappingRun
	for i := range runs {
		r := &runs[i]
		if low == nil || r.DeltaIPercent < low.DeltaIPercent {
			low = r
		}
		if high == nil || r.DeltaIPercent > high.DeltaIPercent {
			high = r
		}
	}
	lw, _ := low.Worst()
	hw, _ := high.Worst()
	if hw <= lw {
		t.Errorf("noise not increasing with delta-I: %g at %g%% vs %g at %g%%",
			lw, low.DeltaIPercent, hw, high.DeltaIPercent)
	}
	if high.MinVoltage >= low.MinVoltage {
		t.Errorf("droop not deepening with delta-I")
	}

	// Figure 11a condensation.
	pts := DeltaISensitivity(runs)
	if len(pts) == 0 {
		t.Fatal("no delta-I points")
	}
	// Per core, max noise at 100% delta-I must exceed max noise at the
	// smallest non-zero delta-I.
	firstPct := 1e9
	for _, p := range pts {
		if p.DeltaIPercent > 0 && p.DeltaIPercent < firstPct {
			firstPct = p.DeltaIPercent
		}
	}
	for c := 0; c < core.NumCores; c++ {
		var lowV, highV float64
		for _, p := range pts {
			if p.Core != c {
				continue
			}
			if p.DeltaIPercent == firstPct {
				lowV = p.MaxP2P
			}
			if p.DeltaIPercent == 100 {
				highV = p.MaxP2P
			}
		}
		if highV <= lowV {
			t.Errorf("core %d: noise at 100%% (%g) <= at %g%% (%g)", c, highV, firstPct, lowV)
		}
	}

	// Figure 11b condensation.
	dist := DistributionAnalysis(runs)
	if len(dist) == 0 {
		t.Fatal("no distribution points")
	}
	total := 0
	for _, d := range dist {
		if d.MaxMarks+d.MediumMarks > core.NumCores {
			t.Errorf("impossible composition %d-%d", d.MaxMarks, d.MediumMarks)
		}
		total += d.Mappings
	}
	if total != len(runs) {
		t.Errorf("distribution covers %d runs of %d", total, len(runs))
	}

	// Figure 13a condensation: high correlations and the layout
	// clusters.
	matrix, clusters := CorrelationStudy(runs)
	for i := 0; i < core.NumCores; i++ {
		for j := i + 1; j < core.NumCores; j++ {
			if matrix[i][j] < 0.85 {
				t.Errorf("corr(%d,%d) = %g, want high (>0.85)", i, j, matrix[i][j])
			}
		}
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	want := [][]int{{0, 2, 4}, {1, 3, 5}}
	for i := range want {
		for j := range want[i] {
			if clusters[i][j] != want[i][j] {
				t.Fatalf("clusters = %v, want %v (the chip's two rows)", clusters, want)
			}
		}
	}
}

func TestConsecutiveEventStudy(t *testing.T) {
	l := lab(t)
	vcfg := vmin.DefaultConfig()
	vcfg.MinBias = 0.88
	pts, err := l.ConsecutiveEventStudy(context.Background(), []float64{2.5e6}, []int{100, 0}, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	syncMargin := pts[0].MarginPercent
	unsyncMargin := pts[1].MarginPercent
	// The paper's key Figure 12 finding: removing the synchronization
	// substantially widens the available margin.
	if unsyncMargin < syncMargin*1.3 {
		t.Errorf("unsync margin %g%% not well above sync margin %g%%", unsyncMargin, syncMargin)
	}
	norm := NormalizeMargins(pts)
	if norm[0] != 0 && norm[1] != 0 {
		t.Error("normalization has no zero")
	}
	if NormalizeMargins(nil) != nil {
		t.Error("NormalizeMargins(nil) != nil")
	}
}

func TestPropagationClusters(t *testing.T) {
	l := lab(t)
	res, err := l.Propagation(0, 25, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 13b: the disturbance reaches cluster mates (2, 4)
	// more strongly than the opposite row (1, 3, 5).
	for _, mate := range []int{2, 4} {
		for _, opp := range []int{1, 3, 5} {
			if res.DroopDepth[mate] <= res.DroopDepth[opp] {
				t.Errorf("droop at mate %d (%g) <= opposite %d (%g)",
					mate, res.DroopDepth[mate], opp, res.DroopDepth[opp])
			}
		}
	}
	if res.DroopDepth[0] <= res.DroopDepth[2] {
		t.Error("source core not the deepest")
	}
	// And faster: arrival on core 2 no later than on core 1.
	if res.ArrivalTime[2] > res.ArrivalTime[1] {
		t.Errorf("arrival at mate %g after opposite %g", res.ArrivalTime[2], res.ArrivalTime[1])
	}
	if _, err := l.Propagation(9, 25, 1e-6); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := l.Propagation(0, -1, 1e-6); err == nil {
		t.Error("bad step accepted")
	}
}

func TestMappingOpportunity(t *testing.T) {
	l := lab(t)
	ops, err := l.MappingOpportunity(context.Background(), 2e6, 20, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	op := ops[0]
	if op.GainP2P < 0 {
		t.Errorf("negative mapping gain %g", op.GainP2P)
	}
	if op.Worst.WorstP2P < op.Best.WorstP2P {
		t.Error("worst below best")
	}
	// The paper's Figure 14: the noisiest 3-mark placement concentrates
	// in one cluster.
	par := op.Worst.Cores[0] % 2
	sameCluster := true
	for _, c := range op.Worst.Cores {
		if c%2 != par {
			sameCluster = false
		}
	}
	if !sameCluster {
		t.Logf("note: worst placement %v spans clusters (gain %g)", op.Worst.Cores, op.GainP2P)
	}
}

// TestMappingOpportunityCounts: the counts of one call share its
// measurement batches, yet each count's opportunity equals a call for
// that count alone; an invalid count fails the call before anything
// is measured, and no counts give an empty result.
func TestMappingOpportunityCounts(t *testing.T) {
	ctx := context.Background()
	l := *lab(t)
	measured := 0
	l.Progress = func(progress.Event) { measured++ }
	all, err := l.MappingOpportunity(ctx, 2e6, 20, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("%d opportunities for 3 counts", len(all))
	}
	for i, k := range []int{1, 2, 3} {
		one, err := l.MappingOpportunity(ctx, 2e6, 20, []int{k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all[i], one[0]) {
			t.Errorf("k=%d: %+v in the joint call, %+v alone", k, all[i], one[0])
		}
	}

	measured = 0
	if _, err := l.MappingOpportunity(ctx, 2e6, 20, []int{2, core.NumCores + 1}); err == nil {
		t.Error("k > NumCores accepted")
	}
	if measured != 0 {
		t.Errorf("%d chunks measured before the invalid count failed the call", measured)
	}
	none, err := l.MappingOpportunity(ctx, 2e6, 20, nil)
	if err != nil || len(none) != 0 {
		t.Errorf("no counts: %+v, %v; want an empty result", none, err)
	}
}

func TestSyncSpecClampsEvents(t *testing.T) {
	l := lab(t)
	s := syncSpec(l.MaxSpec(1e3), 1000) // 1000 events at 1kHz would be 1s
	if float64(s.Events)/s.StimulusFreq > s.Sync.Period() {
		t.Errorf("burst %d events at %g Hz exceeds sync period", s.Events, s.StimulusFreq)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("clamped spec invalid: %v", err)
	}
}
