// Utilization-based dynamic guard-banding: the paper's Section VII-B.
// Measure the worst-case droop as a function of how many cores are
// active, build a margin table from it, and replay a bursty day-long
// utilization trace through the controller to estimate the dynamic
// energy the recovered margin buys.
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

	// Worst-case droop per active-core count, from the mapping study
	// (the data behind the paper's Figure 11a regions).
	runs, err := lab.MappingStudy(ctx, 2e6, 100, false)
	if err != nil {
		log.Fatal(err)
	}
	worstDroop := voltnoise.WorstDroops(runs, plat.NominalVoltage())
	table, err := voltnoise.GuardbandFromDroops(worstDroop, 1.0)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := voltnoise.NewGuardbandController(table)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("margin table (worst-case droop + 1% safety, by active cores):")
	fmt.Println("  cores   margin%    setpoint bias")
	for n := 0; n <= voltnoise.NumCores; n++ {
		bias, _ := ctrl.SetActiveCores(n)
		fmt.Printf("  %5d   %7.2f    %12.3f\n", n, table.MarginPercent[n], bias)
	}

	// A bursty 24h utilization profile: overnight batch on one core,
	// office hours on three, a four-hour peak on all six, evening load
	// on two.
	trace := []voltnoise.UtilizationPhase{
		{ActiveCores: 1, Duration: 6 * 3600},
		{ActiveCores: 3, Duration: 8 * 3600},
		{ActiveCores: 6, Duration: 4 * 3600},
		{ActiveCores: 2, Duration: 6 * 3600},
	}
	s, err := voltnoise.ReplayGuardband(ctrl, trace)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n24h utilization replay:")
	fmt.Printf("  mean setpoint bias:   %.3f\n", s.MeanBias)
	fmt.Printf("  dynamic energy saved: %.1f%% vs a static worst-case guard-band\n", s.EnergySavedPercent)
	fmt.Println("  (the voltage rises BEFORE a core wakes and drops only after one idles,")
	fmt.Println("   so the provisioned margin always covers the worst case for the active set)")
}
