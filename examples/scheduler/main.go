// Noise-aware scheduling end to end: fit a pairwise inter-core noise
// model from live platform measurements (singles and pairs of
// synchronized stressmarks), then replay a bursty job trace under
// first-fit, round-robin and the noise-aware policy, comparing the
// worst-case noise each exposes — the paper's §VII-A "task mapping
// policy with the objective of minimizing the worst-case noise" made
// runnable.
package main

import (
	"context"
	"fmt"
	"log"

	"voltnoise"
)

func main() {
	ctx := context.Background()
	plat, err := voltnoise.NewPlatform(voltnoise.DefaultPlatformConfig())
	if err != nil {
		log.Fatal(err)
	}
	lab, err := voltnoise.NewLab(plat, voltnoise.WithSearch(voltnoise.QuickSearchConfig()))
	if err != nil {
		log.Fatal(err)
	}

	// Fit the pairwise model from 6 single-core and 15 pair
	// measurements of the synchronized max stressmark. The model is
	// fitted on droop depth (in % of nominal), which is continuous —
	// unlike the tap-quantized skitter %p2p readings — so the small
	// cluster couplings survive the fit.
	fmt.Println("fitting the pairwise noise model from platform measurements (21 runs)...")
	spec := lab.MaxSpec(2e6)
	cond := voltnoise.DefaultSync()
	spec.Sync = &cond
	spec.Events = 100
	proto, err := spec.Workload(plat.Config().Core, voltnoise.ISATable())
	if err != nil {
		log.Fatal(err)
	}
	vnom := plat.NominalVoltage()
	// Each of the 21 fit measurements draws a pooled session, so the
	// circuit build and factorization are paid once, not per run.
	pool := plat.Sessions()
	model, err := voltnoise.FitPairwiseNoiseModel(1, func(cores []int) (float64, error) {
		var wl [voltnoise.NumCores]voltnoise.Workload
		for _, c := range cores {
			wl[c] = proto
		}
		s, err := pool.Get(plat.VoltageBias())
		if err != nil {
			return 0, err
		}
		defer pool.Put(s)
		m, err := s.RunContext(ctx, voltnoise.RunSpec{Workloads: wl, Start: -10e-6, Duration: 70e-6})
		if err != nil {
			return 0, err
		}
		return (vnom - m.MinVoltage()) / vnom * 100, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  single-core droop: %.2f-%.2f %% of nominal\n", minOf(model.Base[:]), maxOf(model.Base[:]))
	fmt.Printf("  coupling core0<->core2 (same cluster): +%.2f; core0<->core1 (opposite): +%.2f\n",
		model.Coupling[0][2], model.Coupling[0][1])

	// A bursty trace: a three-job batch, drain, then four interactive
	// jobs.
	trace := []voltnoise.SchedulerEvent{
		{Time: 0, Arrive: true, Job: 1},
		{Time: 1, Arrive: true, Job: 2},
		{Time: 2, Arrive: true, Job: 3},
		{Time: 10, Arrive: false, Job: 1},
		{Time: 10, Arrive: false, Job: 2},
		{Time: 10, Arrive: false, Job: 3},
		{Time: 11, Arrive: true, Job: 4},
		{Time: 12, Arrive: true, Job: 5},
		{Time: 13, Arrive: true, Job: 6},
		{Time: 14, Arrive: true, Job: 7},
		{Time: 25, Arrive: false, Job: 4},
		{Time: 25, Arrive: false, Job: 5},
		{Time: 25, Arrive: false, Job: 6},
		{Time: 25, Arrive: false, Job: 7},
	}
	results, err := voltnoise.CompareSchedulers(
		[]voltnoise.SchedulerPolicy{
			voltnoise.FirstFitPolicy(),
			voltnoise.RoundRobinPolicy(),
			voltnoise.NoiseAwarePolicy(),
		}, model, trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npolicy comparison over the job trace (worst-case droop, % of nominal):")
	fmt.Println("  policy        peak droop  mean droop")
	for _, r := range results {
		fmt.Printf("  %-12s %10.2f %11.2f\n", r.Policy, r.PeakNoise, r.MeanNoise)
	}
	fmt.Println("\n(the noise-aware policy spreads jobs across the two on-die voltage")
	fmt.Println(" domains and avoids flanking a core with two noisy row neighbours;")
	fmt.Println(" as the paper itself concludes, the gains are small on a six-core chip")
	fmt.Println(" and grow with core count and process variation)")
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
