package isa

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTableSize(t *testing.T) {
	if got := len(ZEC12Table().Instructions()); got != TableSize {
		t.Errorf("table has %d instructions, want %d", got, TableSize)
	}
}

func TestTableDeterministic(t *testing.T) {
	// buildTable is called directly to verify determinism independent
	// of the cached singleton.
	a, b := buildTable(), buildTable()
	if len(a.list) != len(b.list) {
		t.Fatalf("sizes differ: %d vs %d", len(a.list), len(b.list))
	}
	for i, in := range a.Instructions() {
		other := b.Instructions()[i]
		if *in != *other {
			t.Fatalf("instruction %d differs: %v vs %v", i, in, other)
		}
	}
}

func TestAllInstructionsValid(t *testing.T) {
	for _, in := range ZEC12Table().Instructions() {
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", in.Mnemonic, err)
		}
	}
}

func TestMnemonicsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, in := range ZEC12Table().Instructions() {
		if seen[in.Mnemonic] {
			t.Errorf("duplicate mnemonic %q", in.Mnemonic)
		}
		seen[in.Mnemonic] = true
	}
}

func TestLookup(t *testing.T) {
	tab := ZEC12Table()
	in, ok := tab.Lookup("CIB")
	if !ok || in.Mnemonic != "CIB" {
		t.Fatalf("Lookup(CIB) = %v, %v", in, ok)
	}
	if _, ok := tab.Lookup("NOTANOP"); ok {
		t.Error("Lookup of unknown mnemonic succeeded")
	}
	if got := tab.MustLookup("SRNM"); got.RelPower != 1.0 {
		t.Errorf("SRNM power = %g", got.RelPower)
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ZEC12Table().MustLookup("NOTANOP")
}

// TestTableIRanking verifies the paper's Table I: the first and last
// five instructions of the EPI rank with their published powers
// (rounded to two decimals as printed in the paper).
func TestTableIRanking(t *testing.T) {
	rank := ZEC12Table().RankByPower()
	top := []struct {
		mn    string
		power string
	}{
		{"CIB", "1.58"}, {"CRB", "1.57"}, {"BXHG", "1.57"}, {"CGIB", "1.55"}, {"CHHSI", "1.55"},
	}
	for i, want := range top {
		got := rank[i]
		if got.Mnemonic != want.mn {
			t.Errorf("rank %d = %s, want %s", i+1, got.Mnemonic, want.mn)
		}
		if p := fmt.Sprintf("%.2f", got.RelPower); p != want.power {
			t.Errorf("rank %d power = %s, want %s", i+1, p, want.power)
		}
	}
	bottom := []struct {
		mn    string
		power string
	}{
		{"DDTRA", "1.01"}, {"MXTRA", "1.01"}, {"MDTRA", "1.00"}, {"STCK", "1.00"}, {"SRNM", "1.00"},
	}
	for i, want := range bottom {
		got := rank[len(rank)-5+i]
		if got.Mnemonic != want.mn {
			t.Errorf("rank %d = %s, want %s", len(rank)-4+i, got.Mnemonic, want.mn)
		}
		if p := fmt.Sprintf("%.2f", got.RelPower); p != want.power {
			t.Errorf("rank %d power = %s, want %s", len(rank)-4+i, p, want.power)
		}
	}
}

func TestRankMonotonic(t *testing.T) {
	rank := ZEC12Table().RankByPower()
	for i := 1; i < len(rank); i++ {
		if rank[i].RelPower > rank[i-1].RelPower {
			t.Fatalf("rank not monotonic at %d: %g > %g", i, rank[i].RelPower, rank[i-1].RelPower)
		}
	}
}

func TestUnitPopulations(t *testing.T) {
	tab := ZEC12Table()
	counts := map[Unit]int{}
	for _, in := range tab.Instructions() {
		counts[in.Unit]++
	}
	// Every modelled unit must have a meaningful population so the
	// candidate-selection step has material to work with.
	for u := Unit(0); u < numUnits; u++ {
		if counts[u] < 50 {
			t.Errorf("unit %s has only %d instructions", u, counts[u])
		}
	}
}

func TestBranchesEndGroups(t *testing.T) {
	for _, in := range ZEC12Table().Instructions() {
		if in.Unit == UnitBranch && in.Issue != IssueEndsGroup {
			t.Errorf("branch %s has issue kind %v", in.Mnemonic, in.Issue)
		}
	}
}

func TestSystemOpsIssueAlone(t *testing.T) {
	for _, in := range ZEC12Table().Instructions() {
		if in.Unit == UnitSystem && in.Issue != IssueAlone {
			t.Errorf("system op %s has issue kind %v", in.Mnemonic, in.Issue)
		}
	}
}

func TestUnpipelinedOpsAreLowPower(t *testing.T) {
	// The paper's observation: long-latency unpipelined instructions
	// stall the pipeline, so their single-instruction loops burn the
	// least power. Every unpipelined op must rank below every
	// pipelined FXU/branch op.
	tab := ZEC12Table()
	minPipelined := 10.0
	maxUnpipelined := 0.0
	for _, in := range tab.Instructions() {
		if in.Unit == UnitFXU || in.Unit == UnitBranch {
			if in.Pipelined() && in.RelPower < minPipelined {
				minPipelined = in.RelPower
			}
		}
		if !in.Pipelined() && in.Unit == UnitDFU && in.RelPower > maxUnpipelined {
			maxUnpipelined = in.RelPower
		}
	}
	if maxUnpipelined >= minPipelined {
		t.Errorf("unpipelined DFU max power %g >= pipelined FXU/BRU min %g", maxUnpipelined, minPipelined)
	}
}

func TestValidateRejectsBadInstructions(t *testing.T) {
	good := Instruction{Mnemonic: "OK", Unit: UnitFXU, MicroOps: 1, Latency: 1, InitInterval: 1, RelPower: 1.2}
	if err := good.Validate(); err != nil {
		t.Fatalf("good instruction rejected: %v", err)
	}
	cases := map[string]Instruction{
		"empty mnemonic": func() Instruction { i := good; i.Mnemonic = ""; return i }(),
		"zero uops":      func() Instruction { i := good; i.MicroOps = 0; return i }(),
		"zero latency":   func() Instruction { i := good; i.Latency = 0; return i }(),
		"ii > latency":   func() Instruction { i := good; i.InitInterval = 5; return i }(),
		"power < 1":      func() Instruction { i := good; i.RelPower = 0.9; return i }(),
		"bad unit":       func() Instruction { i := good; i.Unit = Unit(99); return i }(),
	}
	for name, in := range cases {
		if err := in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %v", name, in)
		}
	}
}

func TestStringers(t *testing.T) {
	if UnitFXU.String() != "FXU" || UnitDFU.String() != "DFU" {
		t.Error("unit stringer wrong")
	}
	if Unit(42).String() != "Unit(42)" {
		t.Errorf("unknown unit = %q", Unit(42).String())
	}
	if IssueNormal.String() != "normal" || IssueAlone.String() != "alone" || IssueEndsGroup.String() != "ends-group" {
		t.Error("issue stringer wrong")
	}
	if IssueKind(9).String() != "IssueKind(9)" {
		t.Error("unknown issue stringer wrong")
	}
	in := ZEC12Table().MustLookup("CIB")
	if s := in.String(); s == "" {
		t.Error("empty instruction string")
	}
}

// Property: hash01 is deterministic and in [0, 1).
func TestHash01Property(t *testing.T) {
	f := func(s string) bool {
		v := hash01(s)
		return v >= 0 && v < 1 && v == hash01(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: relative powers all live in [1.0, 1.58] (SRNM floor, CIB
// ceiling), matching the paper's normalized range.
func TestPowerRangeInvariant(t *testing.T) {
	for _, in := range ZEC12Table().Instructions() {
		if in.RelPower < 1.0 || in.RelPower > 1.58 {
			t.Errorf("%s power %g outside [1.0, 1.58]", in.Mnemonic, in.RelPower)
		}
	}
}
