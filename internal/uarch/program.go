package uarch

import (
	"fmt"
	"strings"

	"voltnoise/internal/isa"
)

// Program is a loop body: a finite instruction sequence executed
// repeatedly. All analyses in this package treat it as an infinite
// cyclic stream in steady state, matching the paper's micro-benchmark
// skeleton (an endless loop whose closing branch is amortized across
// thousands of repetitions).
type Program struct {
	// Name identifies the program in listings and results.
	Name string
	// Body is one loop iteration.
	Body []*isa.Instruction
}

// NewProgram builds a validated program.
func NewProgram(name string, body []*isa.Instruction) (*Program, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("uarch: program %q has empty body", name)
	}
	for i, in := range body {
		if in == nil {
			return nil, fmt.Errorf("uarch: program %q has nil instruction at %d", name, i)
		}
	}
	return &Program{Name: name, Body: body}, nil
}

// MustProgram is NewProgram that panics on error, for statically known
// bodies.
func MustProgram(name string, body []*isa.Instruction) *Program {
	p, err := NewProgram(name, body)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the number of instructions in one iteration.
func (p *Program) Len() int { return len(p.Body) }

// TotalMicroOps returns the number of micro-ops in one iteration.
func (p *Program) TotalMicroOps() int {
	n := 0
	for _, in := range p.Body {
		n += in.MicroOps
	}
	return n
}

// Mnemonics returns the space-separated mnemonic listing of one
// iteration.
func (p *Program) Mnemonics() string {
	parts := make([]string, len(p.Body))
	for i, in := range p.Body {
		parts[i] = in.Mnemonic
	}
	return strings.Join(parts, " ")
}

// Listing returns an assembler-style listing of the loop body.
func (p *Program) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", p.Name)
	for _, in := range p.Body {
		fmt.Fprintf(&b, "\t%-8s ; %s [%s]\n", in.Mnemonic, in.Desc, in.Unit)
	}
	fmt.Fprintf(&b, "\tJ %s\n", p.Name)
	return b.String()
}

func (p *Program) String() string {
	return fmt.Sprintf("%s{%s}", p.Name, p.Mnemonics())
}
