// Command epiprofile generates the energy-per-instruction profile of
// the synthetic zEC12-like ISA: one micro-benchmark per instruction,
// measured on the cycle-level executor, ranked by power (the paper's
// Table I methodology).
//
// Usage:
//
//	epiprofile [-n 5] [-all] [-unit FXU] [-workers N]
//
// -workers caps the parallel measurement workers (0 = one per CPU,
// 1 = serial); the profile is bit-identical for every setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"voltnoise"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "epiprofile: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("epiprofile", flag.ContinueOnError)
	n := fs.Int("n", 5, "entries to show from each end of the rank")
	all := fs.Bool("all", false, "dump the full ranking")
	unit := fs.String("unit", "", "restrict the dump to one functional unit (FXU, BRU, LSU, BFU, DFU, SYS)")
	workers := fs.Int("workers", 0, "parallel measurement workers (0 = one per CPU, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := voltnoise.DefaultEPIConfig()
	cfg.Workers = *workers
	prof, err := voltnoise.EPIProfile(ctx, cfg)
	if err != nil {
		return err
	}
	if !*all && *unit == "" {
		fmt.Fprint(out, prof.TableI(*n))
		return nil
	}
	fmt.Fprintf(out, "%-5s %-10s %-6s %-55s %6s %6s\n", "Rank", "Instr.", "Unit", "Description", "Power", "IPC")
	for i, e := range prof.Entries {
		if *unit != "" && e.Instr.Unit.String() != *unit {
			continue
		}
		fmt.Fprintf(out, "%-5d %-10s %-6s %-55s %6.2f %6.2f\n",
			i+1, e.Instr.Mnemonic, e.Instr.Unit, e.Instr.Desc, e.RelPower, e.IPC)
	}
	return nil
}
