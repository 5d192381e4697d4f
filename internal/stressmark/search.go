// Package stressmark implements the paper's central contribution: a
// systematic, fully configurable ("white-box") methodology to generate
// dI/dt stressmarks.
//
// The pipeline mirrors the paper's Section IV:
//
//  1. EPI profiling ranks all ISA instructions by loop power (package
//     epi / isa).
//  2. Candidate selection picks the top power instructions per
//     functional-unit/issue-class category (9 candidates).
//  3. All length-6 combinations of the candidates are generated
//     (9^6 = 531 441 sequences).
//  4. A microarchitectural filter removes sequences that cannot
//     sustain full dispatch groups (average group size 3) or violate
//     branch-count constraints.
//  5. An IPC filter keeps the top-1000 sequences by analytic IPC.
//  6. Power evaluation (the cycle-level executor standing in for the
//     paper's hardware power measurements) picks the winner.
//
// The package then assembles parameterizable dI/dt stressmarks from
// the discovered maximum- and minimum-power sequences, with all four
// knobs the paper studies: ΔI magnitude, stimulus frequency, number of
// consecutive ΔI events, and TOD-based synchronization/misalignment.
package stressmark

import (
	"context"
	"fmt"
	"math"
	"sort"

	"voltnoise/internal/exec"
	"voltnoise/internal/isa"
	"voltnoise/internal/uarch"
)

// SearchConfig parameterizes the maximum-power sequence search.
type SearchConfig struct {
	// Core is the core model used for filtering and evaluation.
	Core uarch.Config
	// Table is the instruction table to search.
	Table *isa.Table
	// SeqLen is the sequence length: twice the dispatch group size in
	// the paper ("the best trade-off between combinations explored and
	// experimental time").
	SeqLen int
	// NumCandidates is the number of instruction candidates
	// (9 in the paper, avoiding design-space explosion).
	NumCandidates int
	// KeepTopIPC is how many sequences survive the IPC filter (1000).
	KeepTopIPC int
	// MaxBranches is the microarchitectural filter's branch budget per
	// sequence (one per dispatch group).
	MaxBranches int
	// EvalCycles is the executor window for the power evaluation stage.
	EvalCycles int
	// Parallelism is the number of concurrent workers in the power
	// evaluation stage. The paper notes its evaluations "can run in
	// parallel using different cores and machines"; results are
	// deterministic regardless of worker count (ties break toward the
	// earlier candidate). The repo-wide workers convention applies:
	// zero (or negative) selects one worker per CPU; one evaluates
	// serially.
	Parallelism int
}

// DefaultSearchConfig mirrors the paper's settings.
func DefaultSearchConfig() SearchConfig {
	return SearchConfig{
		Core:          uarch.DefaultConfig(),
		Table:         isa.ZEC12Table(),
		SeqLen:        6,
		NumCandidates: 9,
		KeepTopIPC:    1000,
		MaxBranches:   2,
		EvalCycles:    4096,
	}
}

// QuickSearchConfig returns a reduced search (3-instruction sequences
// over 5 candidates) that finds a near-identical stressmark in
// milliseconds; the preset behind every -quick flag and the service's
// "quick" request field.
func QuickSearchConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.SeqLen = 3
	cfg.NumCandidates = 5
	cfg.KeepTopIPC = 50
	cfg.EvalCycles = 1024
	return cfg
}

// Validate reports whether the search configuration is usable.
func (c SearchConfig) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	switch {
	case c.Table == nil:
		return fmt.Errorf("stressmark: nil instruction table")
	case c.SeqLen < 1:
		return fmt.Errorf("stressmark: sequence length %d", c.SeqLen)
	case c.NumCandidates < 1:
		return fmt.Errorf("stressmark: %d candidates", c.NumCandidates)
	case c.KeepTopIPC < 1:
		return fmt.Errorf("stressmark: IPC filter keeps %d", c.KeepTopIPC)
	case c.MaxBranches < 0:
		return fmt.Errorf("stressmark: negative branch budget")
	case c.EvalCycles < 100:
		return fmt.Errorf("stressmark: evaluation window %d too short", c.EvalCycles)
	}
	return nil
}

// SearchResult reports the funnel of the search pipeline, mirroring
// the counts the paper quotes at each stage.
type SearchResult struct {
	// Candidates are the selected instruction candidates.
	Candidates []*isa.Instruction
	// Generated is the number of raw combinations (candidates^SeqLen).
	Generated int
	// AfterUarchFilter is the count surviving the microarchitectural
	// filter.
	AfterUarchFilter int
	// AfterIPCFilter is the count surviving the IPC filter.
	AfterIPCFilter int
	// Best is the maximum power sequence found.
	Best *uarch.Program
	// BestPower is its evaluated power in watts.
	BestPower float64
}

// SelectCandidates implements the paper's candidate-selection step: it
// categorizes instructions by functional unit and issue class, keeps
// the top power-consuming instructions of each category, and discards
// low-power/low-IPC categories (unpipelined and serializing
// operations cannot contribute to a maximum-power sequence).
func SelectCandidates(cfg SearchConfig) []*isa.Instruction {
	type key struct {
		unit  isa.Unit
		issue isa.IssueKind
	}
	groups := map[key][]*isa.Instruction{}
	for _, in := range cfg.Table.Instructions() {
		// Category discard: low-IPC instructions (serializing or
		// unpipelined) are excluded up front, as in the paper.
		if in.Issue == isa.IssueAlone || !in.Pipelined() {
			continue
		}
		k := key{in.Unit, in.Issue}
		groups[k] = append(groups[k], in)
	}
	// Sort each category by descending power and flatten round-robin:
	// every category contributes its best instruction before any
	// contributes its second-best, so all units are represented.
	keys := make([]key, 0, len(groups))
	for k := range groups {
		sort.SliceStable(groups[k], func(i, j int) bool {
			return groups[k][i].RelPower > groups[k][j].RelPower
		})
		keys = append(keys, k)
	}
	// Deterministic category order: by the power of the category's top
	// instruction.
	sort.SliceStable(keys, func(i, j int) bool {
		return groups[keys[i]][0].RelPower > groups[keys[j]][0].RelPower
	})
	var out []*isa.Instruction
	for round := 0; len(out) < cfg.NumCandidates; round++ {
		progress := false
		for _, k := range keys {
			if len(out) == cfg.NumCandidates {
				break
			}
			if round < len(groups[k]) {
				out = append(out, groups[k][round])
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	return out
}

// passesUarchFilter implements the microarchitectural filtering stage:
// the sequence must sustain the maximum average dispatch-group size
// (i.e. dispatch-width micro-ops per group) and respect the branch
// budget. These are exactly the constraints the paper names ("average
// dispatch group size of 3", "maximum number of branches").
func passesUarchFilter(cfg SearchConfig, body []*isa.Instruction) bool {
	branches := 0
	uops := 0
	for _, in := range body {
		if in.Unit == isa.UnitBranch {
			branches++
		}
		uops += in.MicroOps
	}
	if branches > cfg.MaxBranches {
		return false
	}
	// Group-size feasibility: total micro-ops must be packable into
	// full groups, and every branch must be able to sit at the end of
	// a full group. A cheap structural check first, then the exact
	// group-formation simulation.
	if uops%cfg.Core.DispatchWidth != 0 {
		return false
	}
	prog := &uarch.Program{Name: "cand", Body: body}
	gs := cfg.Core.FormGroups(prog)
	return gs.AvgGroupSize >= float64(cfg.Core.DispatchWidth)-1e-9
}

// FindMaxPowerSequence runs the full search pipeline.
func FindMaxPowerSequence(cfg SearchConfig) (*SearchResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &SearchResult{Candidates: SelectCandidates(cfg)}
	n := len(res.Candidates)
	if n == 0 {
		return nil, fmt.Errorf("stressmark: no candidates selected")
	}
	res.Generated = pow(n, cfg.SeqLen)

	// Enumerate candidate^SeqLen combinations with an odometer,
	// filtering structurally.
	type scored struct {
		body []*isa.Instruction
		ipc  float64
	}
	var survivors []scored
	idx := make([]int, cfg.SeqLen)
	body := make([]*isa.Instruction, cfg.SeqLen)
	for {
		for i, d := range idx {
			body[i] = res.Candidates[d]
		}
		if passesUarchFilter(cfg, body) {
			res.AfterUarchFilter++
			prog := &uarch.Program{Name: "cand", Body: body}
			ipc := cfg.Core.IPC(prog)
			survivors = append(survivors, scored{body: append([]*isa.Instruction(nil), body...), ipc: ipc})
		}
		// Advance the odometer.
		pos := cfg.SeqLen - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < n {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			break
		}
	}

	// IPC filter: keep the top KeepTopIPC by IPC.
	sort.SliceStable(survivors, func(i, j int) bool { return survivors[i].ipc > survivors[j].ipc })
	if len(survivors) > cfg.KeepTopIPC {
		survivors = survivors[:cfg.KeepTopIPC]
	}
	res.AfterIPCFilter = len(survivors)
	if len(survivors) == 0 {
		return nil, fmt.Errorf("stressmark: all sequences filtered out")
	}

	// Power evaluation: run each survivor on the cycle-level executor
	// (the simulation stand-in for the paper's hardware measurements)
	// and keep the highest power. The evaluations fan out over the
	// exec worker pool; the final reduction breaks ties toward the
	// earliest survivor so the result is independent of Parallelism.
	powers, err := exec.Map(context.Background(), len(survivors), cfg.Parallelism, func(_ context.Context, i int) (float64, error) {
		prog := &uarch.Program{Name: fmt.Sprintf("seq%d", i), Body: survivors[i].body}
		ex, err := uarch.NewExecutor(cfg.Core, prog)
		if err != nil {
			return 0, err
		}
		return ex.AveragePower(cfg.EvalCycles/4, cfg.EvalCycles), nil
	})
	if err != nil {
		return nil, err
	}
	bestIdx := -1
	for i, p := range powers {
		if p > res.BestPower {
			res.BestPower = p
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("stressmark: power evaluation produced no winner")
	}
	res.Best = &uarch.Program{Name: "maxpower", Body: survivors[bestIdx].body}
	return res, nil
}

// MinPowerSequence returns the minimum-power sequence: the last
// instruction of the EPI rank, per the paper's observation that
// long-latency serializing instructions beat NOPs because they stall
// the whole pipeline.
func MinPowerSequence(cfg SearchConfig) *uarch.Program {
	rank := cfg.Table.RankByPower()
	last := rank[len(rank)-1]
	return uarch.MustProgram("minpower", []*isa.Instruction{last})
}

// SequenceWithPower constructs a sequence whose steady-state power is
// within tol watts of target, by interleaving repetitions of the
// high-power body with repetitions of the min-power instruction. It is
// how the paper's "medium" dI/dt stressmark ("consumes exactly the
// average between the maximum and the minimum power sequence") is
// realized.
func SequenceWithPower(cfg SearchConfig, high *uarch.Program, target, tol float64) (*uarch.Program, error) {
	low := MinPowerSequence(cfg)
	pHigh := cfg.Core.Power(high)
	pLow := cfg.Core.Power(low)
	if target > pHigh+tol || target < pLow-tol {
		return nil, fmt.Errorf("stressmark: target %g W outside [%g, %g]", target, pLow, pHigh)
	}
	best := (*uarch.Program)(nil)
	bestErr := tol + 1
	// Search small interleavings: high body a times + low instruction
	// b times. Steady-state power interpolates between the extremes.
	for a := 0; a <= 40; a++ {
		for b := 0; b <= 40; b++ {
			if a == 0 && b == 0 {
				continue
			}
			var body []*isa.Instruction
			for i := 0; i < a; i++ {
				body = append(body, high.Body...)
			}
			for i := 0; i < b; i++ {
				body = append(body, low.Body...)
			}
			prog := &uarch.Program{Name: fmt.Sprintf("mix_%da_%db", a, b), Body: body}
			p := cfg.Core.Power(prog)
			if e := math.Abs(p - target); e < bestErr {
				bestErr = e
				best = prog
			}
		}
	}
	if bestErr > tol {
		return nil, fmt.Errorf("stressmark: no interleaving within %g W of target %g (best error %g)", tol, target, bestErr)
	}
	return best, nil
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}
