package uarch

import (
	"fmt"

	"voltnoise/internal/isa"
)

// Executor runs a cyclic program cycle by cycle, producing per-cycle
// dynamic energy. It models dispatch-group formation and per-unit pipe
// occupancy (including unpipelined initiation intervals) for
// dependency-free instruction streams — the stream class the paper's
// stressmarks are built from.
type Executor struct {
	cfg  Config
	prog *Program

	pos      int // next instruction index in the body
	uop      int // next micro-op within that instruction
	cycle    int64
	pipeFree [isa.NumUnits][]int64 // absolute cycle at which each pipe frees
}

// NewExecutor prepares an executor. The configuration must validate.
func NewExecutor(cfg Config, prog *Program) (*Executor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog == nil || prog.Len() == 0 {
		return nil, fmt.Errorf("uarch: executor needs a non-empty program")
	}
	e := &Executor{cfg: cfg, prog: prog}
	for u := range e.pipeFree {
		e.pipeFree[u] = make([]int64, cfg.UnitCapacity[u])
	}
	return e, nil
}

// Reset rewinds the executor to cycle zero and swaps in prog, reusing
// the pipe bookkeeping allocations. Afterwards the executor behaves
// exactly as one freshly constructed with NewExecutor(cfg, prog) —
// profiling loops lean on this to run thousands of programs through
// one executor without per-program allocation.
func (e *Executor) Reset(prog *Program) error {
	if prog == nil || prog.Len() == 0 {
		return fmt.Errorf("uarch: executor needs a non-empty program")
	}
	e.prog = prog
	e.pos, e.uop, e.cycle = 0, 0, 0
	for u := range e.pipeFree {
		for p := range e.pipeFree[u] {
			e.pipeFree[u][p] = 0
		}
	}
	return nil
}

// StepCycle executes one clock cycle and returns the dynamic energy
// (joules) dissipated in it. Static power is not included; callers add
// cfg.StaticPower * cfg.CycleTime() per cycle.
func (e *Executor) StepCycle() float64 {
	energy, _ := e.stepCycle()
	return energy
}

// stepCycle executes one cycle, returning the dynamic energy and the
// number of micro-ops dispatched.
func (e *Executor) stepCycle() (energy float64, dispatched int) {
	for dispatched < e.cfg.DispatchWidth {
		in := e.prog.Body[e.pos]
		// A serializing instruction only starts in an empty group.
		if in.Issue == isa.IssueAlone && dispatched > 0 && e.uop == 0 {
			break
		}
		// A cracked instruction's micro-ops stay within one dispatch
		// group: if they no longer fit, the group closes and the
		// instruction starts in the next cycle's group. (Micro-ops may
		// still issue across cycles once started, when unit bandwidth
		// stalls them — the group has already been formed then.)
		if e.uop == 0 && in.MicroOps > e.cfg.DispatchWidth-dispatched {
			break
		}
		pipe, ok := e.freePipe(in.Unit)
		if !ok {
			break // structural stall: retry next cycle
		}
		// Dispatch one micro-op: the pipe accepts the next one after
		// the initiation interval (1 cycle when fully pipelined).
		e.pipeFree[in.Unit][pipe] = e.cycle + int64(in.InitInterval)
		energy += e.cfg.EnergyPerInstruction(in) / float64(in.MicroOps)
		dispatched++
		e.uop++
		if e.uop == in.MicroOps {
			e.uop = 0
			e.pos = (e.pos + 1) % e.prog.Len()
			if in.Issue != isa.IssueNormal {
				// Branches and serializing instructions close the group.
				e.cycle++
				return energy, dispatched
			}
		}
	}
	e.cycle++
	return energy, dispatched
}

// freePipe finds a pipe of unit u that can accept a micro-op this
// cycle.
func (e *Executor) freePipe(u isa.Unit) (int, bool) {
	for p, free := range e.pipeFree[u] {
		if free <= e.cycle {
			return p, true
		}
	}
	return 0, false
}

// AveragePower executes n cycles (after w warm-up cycles) and returns
// the average total power in watts, the executor-level counterpart of
// Config.Power.
func (e *Executor) AveragePower(warmup, n int) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("uarch: AveragePower over %d cycles", n))
	}
	for i := 0; i < warmup; i++ {
		e.StepCycle()
	}
	total := 0.0
	for i := 0; i < n; i++ {
		total += e.StepCycle()
	}
	return e.cfg.StaticPower + total/(float64(n)*e.cfg.CycleTime())
}

// Counters accumulates the performance-counter view of an execution:
// see package counters for the facility exposed to experiments.
type Counters struct {
	Cycles   int64
	MicroOps int64
	Groups   int64
}

// MeanEnergyWithCounters executes n cycles (n > 0) and returns the
// mean per-cycle dynamic energy with the counter view. The sum
// accumulates in cycle order. Group counts are one group per non-empty
// cycle, which matches the formation model for dependency-free
// streams.
func (e *Executor) MeanEnergyWithCounters(n int) (float64, Counters) {
	if n <= 0 {
		panic(fmt.Sprintf("uarch: MeanEnergyWithCounters over %d cycles", n))
	}
	var c Counters
	sum := 0.0
	for i := 0; i < n; i++ {
		energy, dispatched := e.stepCycle()
		sum += energy
		c.Cycles++
		c.MicroOps += int64(dispatched)
		if dispatched > 0 {
			c.Groups++
		}
	}
	return sum / float64(n), c
}
