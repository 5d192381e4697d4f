// Package epi implements the paper's energy-per-instruction (EPI)
// profiling methodology (Section IV-A / Table I): for every
// instruction in the ISA, generate a micro-benchmark — an endless loop
// of thousands of dependency-free repetitions — run it, measure power
// and performance, and rank the ISA by power. The profile drives
// candidate selection for the maximum-power sequence search and
// directly identifies the minimum-power sequence.
package epi

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"voltnoise/internal/exec"
	"voltnoise/internal/isa"
	"voltnoise/internal/progress"
	"voltnoise/internal/uarch"
)

// Repetitions is the number of dependency-free repetitions in each
// micro-benchmark loop, as in the paper.
const Repetitions = 4000

// Config parameterizes profiling.
type Config struct {
	// Core is the core model the micro-benchmarks run on.
	Core uarch.Config
	// Table is the ISA to profile.
	Table *isa.Table
	// WarmupCycles and MeasureCycles bound each measurement run. The
	// defaults keep the full 1301-instruction profile under a second
	// while staying in steady state.
	WarmupCycles, MeasureCycles int
	// Workers caps the concurrent per-instruction measurement workers.
	// Zero selects one worker per CPU; one forces the serial path. The
	// profile is bit-identical for every setting.
	Workers int
	// Batch is the chunk granularity of the stolen-chunk schedule: each
	// worker claims Batch consecutive instructions at a time (and steals
	// whole chunks from the fullest remaining queue when its own run
	// dries up). Zero selects exec.DefaultBatchWidth; one hands out
	// single instructions. The profile is bit-identical for every
	// setting.
	Batch int
	// Progress, when set, receives one ChunkEntries per reduced
	// instruction chunk, in table order (the ranking happens after the
	// whole profile reduces, so partial entries carry measured power
	// and IPC but no RelPower yet). Deterministic at every (Workers,
	// Batch) setting.
	Progress progress.Sink
}

// ChunkEntries is the Progress payload emitted per profiled chunk: the
// chunk's instruction range in table order and its measured entries.
type ChunkEntries struct {
	Start, End int
	Entries    []Entry
}

// DefaultConfig returns the standard profiling setup.
func DefaultConfig() Config {
	return Config{
		Core:          uarch.DefaultConfig(),
		Table:         isa.ZEC12Table(),
		WarmupCycles:  512,
		MeasureCycles: 4096,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.Table == nil {
		return fmt.Errorf("epi: nil table")
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 100 {
		return fmt.Errorf("epi: measurement window %d/%d too small", c.WarmupCycles, c.MeasureCycles)
	}
	return nil
}

// Entry is one profiled instruction.
type Entry struct {
	// Instr is the profiled instruction.
	Instr *isa.Instruction
	// PowerWatts is the measured loop power.
	PowerWatts float64
	// RelPower is PowerWatts normalized to the lowest-power entry
	// (the paper normalizes to SRNM).
	RelPower float64
	// IPC is the measured micro-ops per cycle of the loop.
	IPC float64
}

// Profile is the ranked result: entries sorted by descending power,
// ties broken by profiling order.
type Profile struct {
	Entries []Entry
}

// MicroBenchmark builds the paper's micro-benchmark skeleton for one
// instruction: an endless loop of Repetitions dependency-free copies.
func MicroBenchmark(in *isa.Instruction) *uarch.Program {
	body := make([]*isa.Instruction, Repetitions)
	for i := range body {
		body[i] = in
	}
	return &uarch.Program{Name: "epi_" + in.Mnemonic, Body: body}
}

// Generate profiles every instruction in the table and returns the
// ranked profile. Measurement runs on the cycle-level executor — the
// simulation stand-in for the paper's hardware power/counter readings.
// The per-instruction runs are independent, so chunks of cfg.Batch
// consecutive instructions fan out across cfg.Workers with work
// stealing (exec.MapStolen); ordered reduction keeps the entries in
// table order before ranking, making the profile bit-identical to a
// serial run for every worker count and chunk width. Canceling ctx
// interrupts the profile between chunks.
func Generate(ctx context.Context, cfg Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	instrs := cfg.Table.Instructions()
	// Each worker recycles one micro-benchmark skeleton and one
	// executor through a pool: between instructions only the body's
	// instruction pointers and the executor's cycle bookkeeping reset,
	// so the profile performs ~zero allocation per instruction instead
	// of a fresh 4000-entry body, program, executor, and energy trace
	// each (the mean accumulates in cycle order — bit-identical to the
	// trace it replaces).
	type scratch struct {
		bench *uarch.Program
		ex    *uarch.Executor
	}
	var scratchPool sync.Pool
	measure := func(in *isa.Instruction) (Entry, error) {
		sc, _ := scratchPool.Get().(*scratch)
		if sc == nil {
			bench := MicroBenchmark(in)
			ex, err := uarch.NewExecutor(cfg.Core, bench)
			if err != nil {
				return Entry{}, fmt.Errorf("epi: %s: %w", in.Mnemonic, err)
			}
			sc = &scratch{bench: bench, ex: ex}
		} else {
			sc.bench.Name = "epi_" + in.Mnemonic
			for i := range sc.bench.Body {
				sc.bench.Body[i] = in
			}
			if err := sc.ex.Reset(sc.bench); err != nil {
				return Entry{}, fmt.Errorf("epi: %s: %w", in.Mnemonic, err)
			}
		}
		defer scratchPool.Put(sc)
		for c := 0; c < cfg.WarmupCycles; c++ {
			sc.ex.StepCycle()
		}
		mean, counters := sc.ex.MeanEnergyWithCounters(cfg.MeasureCycles)
		power := cfg.Core.StaticPower + mean/cfg.Core.CycleTime()
		return Entry{
			Instr:      in,
			PowerWatts: power,
			IPC:        float64(counters.MicroOps) / float64(counters.Cycles),
		}, nil
	}
	entries := make([]Entry, 0, len(instrs))
	width := exec.BatchWidth(cfg.Batch, len(instrs))
	total := exec.NumChunks(len(instrs), width)
	done := 0
	err := exec.MapStolen(ctx, len(instrs), width, cfg.Workers,
		func(ctx context.Context, start, end int) ([]Entry, error) {
			chunk := make([]Entry, 0, end-start)
			for i := start; i < end; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				e, err := measure(instrs[i])
				if err != nil {
					return nil, err
				}
				chunk = append(chunk, e)
			}
			return chunk, nil
		},
		func(ci, start, end int, chunk []Entry) error {
			entries = append(entries, chunk...)
			done++
			cfg.Progress.Emit(progress.Event{
				Chunk: ci, Done: done, Total: total,
				Payload: ChunkEntries{Start: start, End: end, Entries: chunk},
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	return NewProfile(entries), nil
}

// NewProfile ranks measured entries, given in table order, into a
// profile: a stable sort by descending power (ties keep table order),
// then RelPower normalized to the lowest power. entries must not be
// empty; NewProfile sorts them in place and keeps them as the
// profile's Entries.
func NewProfile(entries []Entry) *Profile {
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].PowerWatts > entries[j].PowerWatts })
	min := entries[len(entries)-1].PowerWatts
	for i := range entries {
		entries[i].RelPower = entries[i].PowerWatts / min
	}
	return &Profile{Entries: entries}
}

// Top returns the n highest-power entries.
func (p *Profile) Top(n int) []Entry {
	if n > len(p.Entries) {
		n = len(p.Entries)
	}
	return p.Entries[:n]
}

// Bottom returns the n lowest-power entries, in rank order (the last
// entry is the profile minimum).
func (p *Profile) Bottom(n int) []Entry {
	if n > len(p.Entries) {
		n = len(p.Entries)
	}
	return p.Entries[len(p.Entries)-n:]
}

// TableI renders the paper's Table I: the first and last n entries of
// the rank with descriptions and normalized powers.
func (p *Profile) TableI(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-8s %-55s %s\n", "Rank", "# Instr.", "Description", "Power")
	write := func(rank int, e Entry) {
		fmt.Fprintf(&b, "%-5d %-8s %-55s %.2f\n", rank, e.Instr.Mnemonic, e.Instr.Desc, e.RelPower)
	}
	for i, e := range p.Top(n) {
		write(i+1, e)
	}
	fmt.Fprintf(&b, "%s\n", "...")
	for i, e := range p.Bottom(n) {
		write(len(p.Entries)-n+i+1, e)
	}
	return b.String()
}
