// Package tod models the z-architecture Time-Of-Day (TOD) timing
// facility the paper leverages for deterministic inter-core stressmark
// alignment.
//
// The facility exposes a global 64-bit TOD value shared by all cores.
// The paper's platform steps the architected TOD in 62.5 ns quanta,
// which is exactly the alignment granularity the misalignment
// sensitivity study (its Figure 10) is built on, and stressmarks
// synchronize by spinning until a low-order bit pattern of the TOD
// comes up — "this happens every 4 ms" in the paper's configuration.
// With a 62.5 ns tick, a 16-bit low-order match period is
// 2^16 * 62.5 ns = 4.096 ms, the self-consistent reading of the
// paper's numbers; DefaultSync uses it.
package tod

import "fmt"

// TickSeconds is the TOD stepping quantum: 62.5 ns, the paper's
// misalignment control granularity.
const TickSeconds = 62.5e-9

// DefaultSyncBits is the number of low-order TOD bits the default
// synchronization condition matches, giving the paper's ~4 ms sync
// period (2^16 ticks of 62.5 ns = 4.096 ms).
const DefaultSyncBits = 16

// SyncCondition is a spin-loop exit condition: the low Bits bits of
// the TOD equal Match. It is the deterministic alignment mechanism of
// the paper's multi-core stressmarks; different Match values program
// deliberate misalignments in TickSeconds quanta.
type SyncCondition struct {
	// Bits is the number of low-order bits compared (1..63).
	Bits uint
	// Match is the value the low-order bits must equal
	// (Match < 2^Bits).
	Match uint64
}

// DefaultSync returns the paper's synchronization condition: low 16
// bits zero, matching every 4.096 ms.
func DefaultSync() SyncCondition { return SyncCondition{Bits: DefaultSyncBits} }

// Validate reports whether the condition is well formed.
func (c SyncCondition) Validate() error {
	if c.Bits < 1 || c.Bits > 63 {
		return fmt.Errorf("tod: sync condition with %d bits", c.Bits)
	}
	if c.Match >= 1<<c.Bits {
		return fmt.Errorf("tod: sync match %d does not fit in %d bits", c.Match, c.Bits)
	}
	return nil
}

// Period returns the time between successive matches.
func (c SyncCondition) Period() float64 {
	return float64(uint64(1)<<c.Bits) * TickSeconds
}

// Misalign returns a condition identical to c but offset by the given
// number of ticks (62.5 ns quanta), wrapping within the period. It is
// how the paper programs controlled misalignment between per-core
// stressmark copies.
func (c SyncCondition) Misalign(ticks uint64) SyncCondition {
	period := uint64(1) << c.Bits
	return SyncCondition{Bits: c.Bits, Match: (c.Match + ticks) % period}
}
