package pdn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"
)

// digestSteps is how long each pinned engine run integrates.
const digestSteps = 2000

// pinnedZEC12Digests are sha256 digests over the float64 bits of every
// node potential of every lane after each of digestSteps steps of the
// zEC12 PDN, driven by the time-varying per-lane loads of
// digestCircuit. They pin the engine's numerics at every width: lane
// comparisons catch a lane that drifts from its neighbours, these
// catch a change applied to every width at once.
var pinnedZEC12Digests = map[int]string{
	1:  "b18a602c8e25c9751316d3f231434e322ca66bcc243f1c622ed76ab9509f9db3",
	3:  "eb1e6c9426031f5e16a57c9feeb9ace08f18dad6d2942b43f52f0144bfe0a2f7",
	4:  "ecdde31254b13a0a7f7754da208a1b5ac6a1274c234ff2e4f9bfa47442b2b66c",
	8:  "bfa7532c5ac2e61c263af5ce6172230d7bb276e9699b8fb195c93f7344d44374",
	16: "bcf6f8b3bdeb3a391d8c39cb8774b32a8090de2160fe3fb46791c50afb3830be",
}

// skipUnlessPinnedArch skips digest checks off amd64: the digests were
// taken there, where the compiler never fuses a multiply and an add;
// other architectures may legally fuse them and round differently.
func skipUnlessPinnedArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
}

// digestCircuit is the zEC12 PDN with six core loads and an uncore
// load that depend on time and on *lane, so every lane of a batch
// integrates a different trajectory.
func digestCircuit(lane *int) *Circuit {
	c, nodes := ZEC12(DefaultZEC12Config())
	for i := 0; i < NumCores; i++ {
		i := i
		c.AddLoad(fmt.Sprintf("core%d", i), nodes.Core[i], func(t float64) float64 {
			f := 1.3e6 + 0.41e6*float64(*lane) + 0.07e6*float64(i)
			return 22 + 14*math.Sin(2*math.Pi*f*t+0.3*float64(i))
		})
	}
	c.AddLoad("uncore", nodes.L3, func(t float64) float64 { return 50 + 0.5*float64(*lane) })
	return c
}

// hashPotentials appends the bits of every node potential of every
// lane, node-major, to h.
func hashPotentials(h hash.Hash, c *Circuit, lanes int, volt func(lane int, n NodeID) float64) {
	var buf [8]byte
	for n := 0; n < c.NumNodes(); n++ {
		for l := 0; l < lanes; l++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(volt(l, NodeID(n))))
			h.Write(buf[:])
		}
	}
}

// batchDigest integrates digestCircuit at the given width and returns
// the digest of its potentials, DC point included.
func batchDigest(t *testing.T, lanes int) string {
	t.Helper()
	lane := 0
	c := digestCircuit(&lane)
	bt, err := NewBatchTransientAt(c, 2e-9, 0, lanes, laneFill(c, &lane))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashPotentials(h, c, lanes, bt.Voltage)
	for s := 0; s < digestSteps; s++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		hashPotentials(h, c, lanes, bt.Voltage)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestZEC12DigestPinned checks the batch engine at widths 1, 3, 4, 8
// and 16 (with the vector substitution kernels and with the Go
// fallback), and the width-1 engine over the circuit's own loads (a
// nil fill), against the pinned digests. The width-4 digest was taken on the slice-generic body,
// before width 4 had a register-blocked kernel.
func TestZEC12DigestPinned(t *testing.T) {
	skipUnlessPinnedArch(t)
	defer func(v bool) { useSolveAVX2 = v }(useSolveAVX2)
	for _, vector := range []bool{useSolveAVX2, false} {
		useSolveAVX2 = vector
		for _, lanes := range []int{1, 3, 4, 8, 16} {
			if got, want := batchDigest(t, lanes), pinnedZEC12Digests[lanes]; got != want {
				t.Errorf("width %d (vector kernels %v): digest %s, want %s", lanes, vector, got, want)
			}
		}
	}
	lane := 0
	c := digestCircuit(&lane)
	tr, err := NewBatchTransientAt(c, 2e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashPotentials(h, c, 1, tr.Voltage)
	for s := 0; s < digestSteps; s++ {
		if err := tr.Step(); err != nil {
			t.Fatal(err)
		}
		hashPotentials(h, c, 1, tr.Voltage)
	}
	if got, want := hex.EncodeToString(h.Sum(nil)), pinnedZEC12Digests[1]; got != want {
		t.Errorf("nil fill: digest %s, want %s", got, want)
	}
}
