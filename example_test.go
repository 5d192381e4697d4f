package voltnoise_test

import (
	"fmt"

	"voltnoise"
)

// The synthetic ISA mirrors the zEC12's instruction count and the
// paper's Table I pins.
func ExampleISATable() {
	tab := voltnoise.ISATable()
	cib := tab.MustLookup("CIB")
	fmt.Println(len(tab.Instructions()), "instructions")
	fmt.Println(cib.Mnemonic, cib.Desc)
	// Output:
	// 1301 instructions
	// CIB Compare immediate and branch (32<8)
}

// TOD sync conditions express deterministic multi-core alignment in
// 62.5 ns quanta; misalignment programs exact offsets.
func ExampleDefaultSync() {
	cond := voltnoise.DefaultSync()
	shifted := cond.Misalign(2)
	fmt.Printf("period %.3f ms\n", cond.Period()*1e3)
	fmt.Printf("offset %.1f ns\n", float64(shifted.Match-cond.Match)*voltnoise.TODTickSeconds*1e9)
	// Output:
	// period 4.096 ms
	// offset 125.0 ns
}

// The minimum-power sequence is the EPI rank's bottom instruction: a
// long-latency serializing operation, not a NOP.
func ExampleMinPowerSequence() {
	seq := voltnoise.MinPowerSequence(voltnoise.DefaultSearchConfig())
	fmt.Println(seq.Mnemonics())
	// Output:
	// SRNM
}

// Guard-band margin tables translate utilization into a setpoint: the
// fewer cores that can execute, the lower the safe supply.
func ExampleNewGuardbandController() {
	table, _ := voltnoise.GuardbandFromDroops(
		[voltnoise.NumCores + 1]float64{1, 3, 5, 7, 9, 11, 13}, 1)
	ctrl, _ := voltnoise.NewGuardbandController(table)
	for _, n := range []int{0, 3, 6} {
		bias, _ := ctrl.SetActiveCores(n)
		fmt.Printf("%d cores -> bias %.2f\n", n, bias)
	}
	// Output:
	// 0 cores -> bias 0.88
	// 3 cores -> bias 0.94
	// 6 cores -> bias 1.00
}
