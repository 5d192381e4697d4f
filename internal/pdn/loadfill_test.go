package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneLoad is one load's waveform in one lane.
type laneLoad struct{ base, swing, freq, phase float64 }

func (w laneLoad) at(t float64) float64 {
	return w.base + w.swing*math.Sin(2*math.Pi*w.freq*t+w.phase)
}

// fillLoadNodes returns the load nodes of the fill-equivalence circuit
// in load order: three cores, the fixed VRM node (a load the engine
// must skip, placed mid-list so every later load's slab row is offset
// past it), the other three cores and the L3.
func fillLoadNodes(nodes ZEC12Nodes) []NodeID {
	return []NodeID{nodes.Core[0], nodes.Core[1], nodes.Core[2], nodes.VRM,
		nodes.Core[3], nodes.Core[4], nodes.Core[5], nodes.L3}
}

// fillLoads is the length of fillLoadNodes, and fillVRMLoad the index
// of its fixed-node load.
const (
	fillLoads   = 8
	fillVRMLoad = 3
)

// randomLaneLoads draws a waveform per load and lane, w[k][l], with the
// magnitudes scaled by the fuzzed bytes.
func randomLaneLoads(rng *rand.Rand, loads, lanes int, data []byte) [][]laneLoad {
	w := make([][]laneLoad, loads)
	for k := range w {
		w[k] = make([]laneLoad, lanes)
		for l := range w[k] {
			scale := 1.0
			if len(data) > 0 {
				scale = math.Ldexp(1, int(data[(k*lanes+l)%len(data)]%12)-6)
			}
			w[k][l] = laneLoad{
				base:  scale * (5 + 35*rng.Float64()),
				swing: scale * 15 * rng.Float64(),
				freq:  0.3e6 + 6e6*rng.Float64(),
				phase: 2 * math.Pi * rng.Float64(),
			}
		}
	}
	return w
}

// checkFillMatchesSingles steps a batch engine whose explicit fill
// writes w[k][l] into the load slab next to one nil-fill width-1
// engine per lane whose loads are those waveforms, and requires every
// node potential of every lane to match bit for bit at the DC point
// and after each step. The fill writes NaN for the load at the fixed
// VRM node, so reading it poisons the lane; the width-1 engines count
// their calls to it, which must stay zero.
func checkFillMatchesSingles(t *testing.T, w [][]laneLoad, steps int) {
	t.Helper()
	lanes := len(w[0])
	ckt, nodes := ZEC12(DefaultZEC12Config())
	for k, n := range fillLoadNodes(nodes) {
		ckt.AddLoad(fmt.Sprintf("load%d", k), n, func(float64) float64 {
			panic("pdn: load evaluated by an engine with a fill")
		})
	}
	fill := func(tm float64, cur []float64) {
		for k := range w {
			for l := range w[k] {
				v := w[k][l].at(tm)
				if k == fillVRMLoad {
					v = math.NaN()
				}
				cur[k*lanes+l] = v
			}
		}
	}
	bt, err := NewBatchTransientAt(ckt, 2e-9, 0, lanes, fill)
	if err != nil {
		t.Fatal(err)
	}
	fixedCalls := 0
	singles := make([]*Transient, lanes)
	for l := range singles {
		c, nodes := ZEC12(DefaultZEC12Config())
		for k, n := range fillLoadNodes(nodes) {
			cur := w[k][l].at
			if k == fillVRMLoad {
				cur = func(float64) float64 { fixedCalls++; return math.NaN() }
			}
			c.AddLoad(fmt.Sprintf("load%d", k), n, cur)
		}
		if singles[l], err = NewTransient(c, 2e-9); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(step int) {
		for l, tr := range singles {
			for node := 0; node < ckt.NumNodes(); node++ {
				got, want := bt.Voltage(l, NodeID(node)), tr.Voltage(NodeID(node))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lanes=%d step %d lane %d node %s: fill %v != single %v",
						lanes, step, l, ckt.NodeName(NodeID(node)), got, want)
				}
			}
		}
	}
	compare(0)
	for s := 1; s <= steps; s++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		for _, tr := range singles {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
		}
		compare(s)
	}
	if fixedCalls != 0 {
		t.Errorf("lanes=%d: the nil fill called the load at the fixed VRM node %d times", lanes, fixedCalls)
	}
}

// TestBatchLoadFillMatchesSingles: an engine fed by an explicit fill
// integrates every lane bit-identically to a width-1 engine evaluating
// that lane's loads itself, at every width from 1 to 17 — the scalar
// step, the register-blocked widths 4, 8 and 16 and the generic body.
func TestBatchLoadFillMatchesSingles(t *testing.T) {
	for lanes := 1; lanes <= 17; lanes++ {
		rng := rand.New(rand.NewSource(int64(lanes)))
		checkFillMatchesSingles(t, randomLaneLoads(rng, fillLoads, lanes, nil), 300)
	}
}

// FuzzBatchLoadFill runs the fill-equivalence check over fuzzed lane
// counts (1 to 17), waveforms and load magnitudes.
func FuzzBatchLoadFill(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0x06})
	f.Add(int64(2), uint8(3), []byte{0x00, 0x0b, 0x06})
	f.Add(int64(3), uint8(7), []byte{0x10, 0x80, 0xf0})
	f.Add(int64(4), uint8(15), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(int64(5), uint8(16), []byte{0x42})
	f.Fuzz(func(t *testing.T, seed int64, lanesRaw uint8, data []byte) {
		lanes := 1 + int(lanesRaw)%17
		rng := rand.New(rand.NewSource(seed))
		checkFillMatchesSingles(t, randomLaneLoads(rng, fillLoads, lanes, data), 40)
	})
}
