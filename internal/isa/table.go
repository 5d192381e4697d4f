package isa

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// TableSize is the number of instructions in the synthetic zEC12-like
// ISA, matching the instruction count of the paper's EPI profile
// (Table I ranks 1..1301).
const TableSize = 1301

// Table is an immutable instruction table.
type Table struct {
	list       []*Instruction
	byMnemonic map[string]*Instruction
}

var (
	tableOnce sync.Once
	table     *Table
)

// ZEC12Table returns the synthetic zEC12-like instruction table. The
// table is generated deterministically once and shared; callers must
// not modify the returned instructions.
func ZEC12Table() *Table {
	tableOnce.Do(func() {
		table = buildTable()
	})
	return table
}

// Lookup returns the instruction with the given mnemonic.
func (t *Table) Lookup(mnemonic string) (*Instruction, bool) {
	in, ok := t.byMnemonic[mnemonic]
	return in, ok
}

// MustLookup is Lookup that panics on a missing mnemonic; use it for
// mnemonics that are pinned by construction.
func (t *Table) MustLookup(mnemonic string) *Instruction {
	in, ok := t.Lookup(mnemonic)
	if !ok {
		panic(fmt.Sprintf("isa: unknown mnemonic %q", mnemonic))
	}
	return in
}

// Instructions returns the instructions in stable (generation) order.
// The returned slice is shared; callers must not modify it.
func (t *Table) Instructions() []*Instruction { return t.list }

// RankByPower returns all instructions sorted by descending RelPower,
// ties broken by generation order (which places the paper's pinned
// instructions at their published ranks). This is the EPI-profile
// ranking of the paper's Table I.
func (t *Table) RankByPower() []*Instruction {
	out := make([]*Instruction, len(t.list))
	copy(out, t.list)
	sort.SliceStable(out, func(i, j int) bool { return out[i].RelPower > out[j].RelPower })
	return out
}

// opClass describes the latency behaviour of an operation stem.
type opClass int

const (
	classSimple   opClass = iota // 1-2 cycle pipelined ALU/agen
	classMul                     // medium-latency pipelined
	classDiv                     // long-latency unpipelined
	classLoad                    // cache access
	classStore                   // store queue
	classFPAdd                   // pipelined FP
	classFPMul                   // pipelined FP multiply
	classFPDiv                   // unpipelined FP divide/sqrt
	classDFP                     // unpipelined decimal op
	classDFPShort                // shorter decimal op
	classBranch                  // branch resolution
	classSys                     // serialized system op
	classCrypto                  // multi-uop coprocessor-style op
)

// pinned instructions: the exact Table I entries of the paper with
// their published relative powers (two-decimal rounding reproduces the
// table). Generation order within equal power decides rank ties, so
// the slice order below is the paper's rank order.
var pinnedTop = []*Instruction{
	{Mnemonic: "CIB", Desc: "Compare immediate and branch (32<8)", Format: FormatRIE, Unit: UnitBranch, Issue: IssueEndsGroup, MicroOps: 1, Latency: 2, InitInterval: 1, RelPower: 1.5800},
	{Mnemonic: "CRB", Desc: "Compare and branch (32)", Format: FormatRRF, Unit: UnitBranch, Issue: IssueEndsGroup, MicroOps: 1, Latency: 2, InitInterval: 1, RelPower: 1.5725},
	{Mnemonic: "BXHG", Desc: "Branch on index high (64)", Format: FormatRSY, Unit: UnitBranch, Issue: IssueEndsGroup, MicroOps: 1, Latency: 2, InitInterval: 1, RelPower: 1.5715},
	{Mnemonic: "CGIB", Desc: "Compare immediate and branch (64<8)", Format: FormatRIE, Unit: UnitBranch, Issue: IssueEndsGroup, MicroOps: 1, Latency: 2, InitInterval: 1, RelPower: 1.5530},
	{Mnemonic: "CHHSI", Desc: "Compare halfword immediate (16<16)", Format: FormatSIL, Unit: UnitFXU, Issue: IssueNormal, MicroOps: 1, Latency: 1, InitInterval: 1, RelPower: 1.5510},
}

var pinnedBottom = []*Instruction{
	{Mnemonic: "DDTRA", Desc: "Divide long DFP with rounding mode", Format: FormatRRF, Unit: UnitDFU, Issue: IssueNormal, MicroOps: 1, Latency: 33, InitInterval: 33, RelPower: 1.0105},
	{Mnemonic: "MXTRA", Desc: "Multiply extended DFP with rounding mode", Format: FormatRRF, Unit: UnitDFU, Issue: IssueNormal, MicroOps: 1, Latency: 28, InitInterval: 28, RelPower: 1.0095},
	{Mnemonic: "MDTRA", Desc: "Multiply long DFP with rounding mode", Format: FormatRRF, Unit: UnitDFU, Issue: IssueNormal, MicroOps: 1, Latency: 21, InitInterval: 21, RelPower: 1.0040},
	{Mnemonic: "STCK", Desc: "Store clock", Format: FormatS, Unit: UnitSystem, Issue: IssueAlone, MicroOps: 1, Latency: 12, InitInterval: 12, RelPower: 1.0020},
	{Mnemonic: "SRNM", Desc: "Set rounding mode", Format: FormatS, Unit: UnitSystem, Issue: IssueAlone, MicroOps: 1, Latency: 8, InitInterval: 8, RelPower: 1.0000},
}

// category drives the generation of one slice of the ISA.
type category struct {
	name   string
	count  int // generated entries (pinned ones come on top)
	unit   Unit
	issue  IssueKind
	pmin   float64 // RelPower band for pipelined ops
	pmax   float64
	stems  []stem
	forms  []form
	format Format
}

type stem struct {
	text  string
	desc  string
	class opClass
}

type form struct {
	suffix string
	desc   string
}

func buildTable() *Table {
	cats := []category{
		{
			name: "branch", count: 116, unit: UnitBranch, issue: IssueEndsGroup,
			pmin: 1.35, pmax: 1.54, format: FormatRIE,
			stems: []stem{
				{"BRC", "Branch relative on condition", classBranch},
				{"BRCT", "Branch relative on count", classBranch},
				{"BRAS", "Branch relative and save", classBranch},
				{"BRX", "Branch relative on index", classBranch},
				{"BX", "Branch on index", classBranch},
				{"CRJ", "Compare and branch relative", classBranch},
				{"CLRJ", "Compare logical and branch relative", classBranch},
				{"CIJ", "Compare immediate and branch relative", classBranch},
				{"CLIJ", "Compare logical immediate and branch relative", classBranch},
				{"CLRB", "Compare logical and branch", classBranch},
				{"CLIB", "Compare logical immediate and branch", classBranch},
				{"BAS", "Branch and save", classBranch},
				{"BAL", "Branch and link", classBranch},
				{"BC", "Branch on condition", classBranch},
			},
			forms: []form{
				{"", "(32)"}, {"G", "(64)"}, {"H", "high (32)"}, {"L", "low (32)"},
				{"E", "equal"}, {"NE", "not equal"}, {"LE", "low or equal (32)"},
				{"HE", "high or equal (32)"}, {"GH", "high (64)"}, {"GL", "low (64)"},
				{"GE", "equal (64)"}, {"GNE", "not equal (64)"},
			},
		},
		{
			name: "fxu", count: 399, unit: UnitFXU, issue: IssueNormal,
			pmin: 1.20, pmax: 1.54, format: FormatRRE,
			stems: []stem{
				{"A", "Add", classSimple},
				{"S", "Subtract", classSimple},
				{"AL", "Add logical", classSimple},
				{"SL", "Subtract logical", classSimple},
				{"N", "And", classSimple},
				{"O", "Or", classSimple},
				{"X", "Exclusive or", classSimple},
				{"C", "Compare", classSimple},
				{"CL", "Compare logical", classSimple},
				{"LC", "Load complement", classSimple},
				{"LP", "Load positive", classSimple},
				{"LN", "Load negative", classSimple},
				{"LT", "Load and test", classSimple},
				{"SLA", "Shift left single", classSimple},
				{"SRA", "Shift right single", classSimple},
				{"SLL", "Shift left single logical", classSimple},
				{"SRL", "Shift right single logical", classSimple},
				{"RLL", "Rotate left single logical", classSimple},
				{"M", "Multiply", classMul},
				{"ML", "Multiply logical", classMul},
				{"MS", "Multiply single", classMul},
				{"MGH", "Multiply halfword (64<16)", classMul},
				{"D", "Divide", classDiv},
				{"DL", "Divide logical", classDiv},
				{"DSG", "Divide single (64)", classDiv},
				{"FLOGR", "Find leftmost one", classSimple},
				{"POPCNT", "Population count", classSimple},
			},
			forms: []form{
				{"R", "register (32)"}, {"GR", "register (64)"}, {"GFR", "register (64<32)"},
				{"", "storage (32)"}, {"G", "storage (64)"}, {"GF", "storage (64<32)"},
				{"H", "halfword (32<16)"}, {"GH", "halfword (64<16)"},
				{"HI", "halfword immediate (16)"}, {"GHI", "halfword immediate (64<16)"},
				{"FI", "immediate (32)"}, {"GFI", "immediate (64<32)"},
				{"Y", "storage long-displacement (32)"}, {"GY", "storage long-displacement (64)"},
				{"K", "three-operand (32)"}, {"GRK", "three-operand (64)"},
			},
		},
		{
			name: "lsu", count: 220, unit: UnitLSU, issue: IssueNormal,
			pmin: 1.15, pmax: 1.45, format: FormatRXY,
			stems: []stem{
				{"L", "Load", classLoad},
				{"LH", "Load halfword", classLoad},
				{"LB", "Load byte", classLoad},
				{"LLC", "Load logical character", classLoad},
				{"LLH", "Load logical halfword", classLoad},
				{"LRV", "Load reversed", classLoad},
				{"LA", "Load address", classSimple},
				{"ST", "Store", classStore},
				{"STH", "Store halfword", classStore},
				{"STC", "Store character", classStore},
				{"STRV", "Store reversed", classStore},
				{"IC", "Insert character", classLoad},
				{"LM", "Load multiple", classLoad},
				{"STM", "Store multiple", classStore},
				{"MVI", "Move immediate", classStore},
				{"PFD", "Prefetch data", classLoad},
			},
			forms: []form{
				{"", "(32)"}, {"G", "(64)"}, {"Y", "long displacement (32)"},
				{"GY", "long displacement (64)"}, {"F", "(32<64)"}, {"E", "even pair"},
				{"M", "masked"}, {"HR", "high register"}, {"T", "and test"},
				{"A", "aligned"}, {"U", "update"}, {"X", "indexed"},
				{"RL", "relative long"}, {"GRL", "relative long (64)"},
			},
		},
		{
			name: "bfu", count: 180, unit: UnitBFU, issue: IssueNormal,
			pmin: 1.08, pmax: 1.35, format: FormatRRE,
			stems: []stem{
				{"AE", "Add short BFP", classFPAdd},
				{"AD", "Add long BFP", classFPAdd},
				{"AX", "Add extended BFP", classFPAdd},
				{"SE", "Subtract short BFP", classFPAdd},
				{"SD", "Subtract long BFP", classFPAdd},
				{"SX", "Subtract extended BFP", classFPAdd},
				{"ME", "Multiply short BFP", classFPMul},
				{"MD", "Multiply long BFP", classFPMul},
				{"MX", "Multiply extended BFP", classFPMul},
				{"MAE", "Multiply and add short BFP", classFPMul},
				{"MAD", "Multiply and add long BFP", classFPMul},
				{"MSE", "Multiply and subtract short BFP", classFPMul},
				{"MSD", "Multiply and subtract long BFP", classFPMul},
				{"DE", "Divide short BFP", classFPDiv},
				{"DD", "Divide long BFP", classFPDiv},
				{"DX", "Divide extended BFP", classFPDiv},
				{"SQE", "Square root short BFP", classFPDiv},
				{"SQD", "Square root long BFP", classFPDiv},
				{"CE", "Compare short BFP", classFPAdd},
				{"CD", "Compare long BFP", classFPAdd},
				{"LNE", "Load negative short BFP", classFPAdd},
				{"LND", "Load negative long BFP", classFPAdd},
				{"LPE", "Load positive short BFP", classFPAdd},
				{"LPD", "Load positive long BFP", classFPAdd},
				{"FIE", "Load FP integer short BFP", classFPAdd},
				{"FID", "Load FP integer long BFP", classFPAdd},
			},
			forms: []form{
				{"BR", "register"}, {"B", "storage"}, {"BRA", "register with rounding"},
				{"TR", "to register"}, {"S", "suppressed-exception"},
			},
		},
		{
			name: "dfu", count: 197, unit: UnitDFU, issue: IssueNormal,
			pmin: 1.02, pmax: 1.12, format: FormatRRF,
			stems: []stem{
				{"AD", "Add long DFP", classDFPShort},
				{"AX", "Add extended DFP", classDFP},
				{"SD", "Subtract long DFP", classDFPShort},
				{"SX", "Subtract extended DFP", classDFP},
				{"MD", "Multiply long DFP", classDFP},
				{"MX", "Multiply extended DFP", classDFP},
				{"DD", "Divide long DFP", classDFP},
				{"DX", "Divide extended DFP", classDFP},
				{"CD", "Compare long DFP", classDFPShort},
				{"CX", "Compare extended DFP", classDFPShort},
				{"QAD", "Quantize long DFP", classDFP},
				{"QAX", "Quantize extended DFP", classDFP},
				{"RRD", "Reround long DFP", classDFP},
				{"RRX", "Reround extended DFP", classDFP},
				{"CDF", "Convert from fixed long DFP", classDFP},
				{"CXF", "Convert from fixed extended DFP", classDFP},
				{"CFD", "Convert to fixed long DFP", classDFP},
				{"CFX", "Convert to fixed extended DFP", classDFP},
				{"ESD", "Extract significance long DFP", classDFPShort},
				{"ESX", "Extract significance extended DFP", classDFPShort},
				{"AP", "Add decimal packed", classDFP},
				{"SP", "Subtract decimal packed", classDFP},
				{"MP", "Multiply decimal packed", classDFP},
				{"DP", "Divide decimal packed", classDFP},
				{"ZAP", "Zero and add packed", classDFPShort},
				{"CP", "Compare decimal packed", classDFPShort},
				{"SRP", "Shift and round packed", classDFP},
			},
			forms: []form{
				{"TR", "register"}, {"T", "storage"}, {"TGR", "register (64)"},
				{"GTR", "from 64-bit"}, {"Q", "quantum"}, {"V", "validated"},
				{"Z", "zoned"},
			},
		},
		{
			name: "system", count: 98, unit: UnitSystem, issue: IssueAlone,
			pmin: 1.02, pmax: 1.25, format: FormatS,
			stems: []stem{
				{"STCK", "Store clock", classSys},
				{"SCK", "Set clock", classSys},
				{"STPT", "Store CPU timer", classSys},
				{"SPT", "Set CPU timer", classSys},
				{"STAP", "Store CPU address", classSys},
				{"STIDP", "Store CPU ID", classSys},
				{"STSI", "Store system information", classSys},
				{"STFL", "Store facility list", classSys},
				{"SPKA", "Set PSW key from address", classSys},
				{"SSM", "Set system mask", classSys},
				{"STNSM", "Store then and system mask", classSys},
				{"STOSM", "Store then or system mask", classSys},
				{"EPSW", "Extract PSW", classSys},
				{"PTLB", "Purge TLB", classSys},
				{"ISKE", "Insert storage key extended", classSys},
				{"SSKE", "Set storage key extended", classSys},
				{"RRBE", "Reset reference bit extended", classSys},
				{"IPK", "Insert PSW key", classSys},
				{"PC", "Program call", classSys},
				{"PR", "Program return", classSys},
			},
			forms: []form{
				{"", ""}, {"F", "fast"}, {"E", "extended"}, {"C", "comparative"},
				{"M", "multiple"}, {"Y", "long displacement"},
			},
		},
		{
			name: "misc", count: 81, unit: UnitLSU, issue: IssueNormal,
			pmin: 1.10, pmax: 1.40, format: FormatSS,
			stems: []stem{
				{"MVC", "Move characters", classCrypto},
				{"CLC", "Compare logical characters", classCrypto},
				{"XC", "Exclusive or characters", classCrypto},
				{"NC", "And characters", classCrypto},
				{"OC", "Or characters", classCrypto},
				{"TR", "Translate", classCrypto},
				{"TRT", "Translate and test", classCrypto},
				{"KM", "Cipher message", classCrypto},
				{"KMC", "Cipher message with chaining", classCrypto},
				{"KIMD", "Compute intermediate message digest", classCrypto},
				{"KLMD", "Compute last message digest", classCrypto},
				{"KMAC", "Compute message authentication code", classCrypto},
				{"CKSM", "Checksum", classCrypto},
				{"CMPSC", "Compression call", classCrypto},
			},
			forms: []form{
				{"", ""}, {"K", "with key"}, {"L", "long"}, {"U", "unicode"},
				{"E", "extended"}, {"F", "fast variant"},
			},
		},
	}

	pinnedNames := map[string]bool{}
	for _, in := range append(append([]*Instruction{}, pinnedTop...), pinnedBottom...) {
		pinnedNames[in.Mnemonic] = true
	}

	// Generation order: pinned top, generated categories, pinned
	// bottom. RankByPower's stable sort then reproduces Table I rank
	// order exactly.
	list := make([]*Instruction, 0, TableSize)
	list = append(list, pinnedTop...)
	seen := map[string]bool{}
	for _, cat := range cats {
		list = append(list, generateCategory(cat, pinnedNames, seen)...)
	}
	list = append(list, pinnedBottom...)

	if len(list) != TableSize {
		panic(fmt.Sprintf("isa: generated %d instructions, want %d", len(list), TableSize))
	}
	byM := make(map[string]*Instruction, len(list))
	for _, in := range list {
		if err := in.Validate(); err != nil {
			panic(err)
		}
		if _, dup := byM[in.Mnemonic]; dup {
			panic("isa: duplicate mnemonic " + in.Mnemonic)
		}
		byM[in.Mnemonic] = in
	}
	return &Table{list: list, byMnemonic: byM}
}

// generateCategory produces cat.count unique instructions from the
// stem x form cross product, skipping pinned names. Attributes derive
// deterministically from an FNV hash of the mnemonic.
func generateCategory(cat category, pinned, seen map[string]bool) []*Instruction {
	out := make([]*Instruction, 0, cat.count)
	for _, f := range cat.forms {
		for _, s := range cat.stems {
			if len(out) == cat.count {
				return out
			}
			mn := s.text + f.suffix
			if pinned[mn] || seen[mn] {
				continue
			}
			seen[mn] = true
			desc := s.desc
			if f.desc != "" {
				desc += " " + f.desc
			}
			out = append(out, makeInstruction(cat, mn, desc, s.class))
		}
	}
	// Extend with numbered variants if the cross product ran short; the
	// category definitions are sized to make this rare.
	for v := 2; len(out) < cat.count; v++ {
		for _, s := range cat.stems {
			if len(out) == cat.count {
				break
			}
			mn := fmt.Sprintf("%s%d", s.text, v)
			if pinned[mn] || seen[mn] {
				continue
			}
			seen[mn] = true
			out = append(out, makeInstruction(cat, mn, fmt.Sprintf("%s (variant %d)", s.desc, v), s.class))
		}
	}
	return out
}

func makeInstruction(cat category, mnemonic, desc string, class opClass) *Instruction {
	h := hash01(mnemonic)
	in := &Instruction{
		Mnemonic: mnemonic,
		Desc:     desc,
		Format:   cat.format,
		Unit:     cat.unit,
		Issue:    cat.issue,
		MicroOps: 1,
		Latency:  1,
	}
	switch class {
	case classSimple, classBranch:
		in.Latency = 1 + int(h*2.99) // 1..3
		in.InitInterval = 1
	case classLoad:
		in.Latency = 2 + int(h*2.99) // 2..4
		in.InitInterval = 1
	case classStore:
		in.Latency = 1 + int(h*1.99) // 1..2
		in.InitInterval = 1
	case classMul:
		in.Latency = 5 + int(h*3.99) // 5..8
		in.InitInterval = 1
	case classDiv:
		in.Latency = 22 + int(h*17.99) // 22..39
		in.InitInterval = in.Latency
	case classFPAdd:
		in.Latency = 6 + int(h*2.99) // 6..8
		in.InitInterval = 1
	case classFPMul:
		in.Latency = 7 + int(h*2.99) // 7..9
		in.InitInterval = 1
	case classFPDiv:
		in.Latency = 24 + int(h*15.99) // 24..39
		in.InitInterval = in.Latency
	case classDFP:
		in.Latency = 15 + int(h*24.99) // 15..39
		in.InitInterval = in.Latency
	case classDFPShort:
		in.Latency = 8 + int(h*6.99) // 8..14
		in.InitInterval = in.Latency
	case classSys:
		in.Latency = 6 + int(h*23.99) // 6..29
		in.InitInterval = in.Latency
	case classCrypto:
		in.MicroOps = 2 + int(h*1.99) // 2..3 uops
		in.Latency = 4 + int(h*5.99)  // 4..9
		in.InitInterval = 2
	}
	// Relative power: unpipelined operations sit at the bottom of the
	// category band (the loop stalls, so average power is low); fully
	// pipelined ones span the band.
	h2 := hash01(mnemonic + "/p")
	if in.InitInterval > 1 && class != classCrypto {
		span := (cat.pmax - cat.pmin) * 0.25
		in.RelPower = cat.pmin + h2*span
	} else {
		in.RelPower = cat.pmin + h2*(cat.pmax-cat.pmin)
	}
	return in
}

// hash01 maps a string deterministically into [0, 1).
func hash01(s string) float64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return float64(h.Sum64()%1_000_000) / 1_000_000
}
