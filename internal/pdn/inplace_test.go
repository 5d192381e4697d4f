package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// zec12LU factors the calibrated zEC12 companion matrix — the factor
// every transient step solves against in production.
func zec12LU(t testing.TB) *realLU {
	t.Helper()
	ckt, _ := ZEC12(DefaultZEC12Config())
	tr, err := NewBatchTransientAt(ckt, 2e-9, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr.lu
}

// byteIdentical fails unless a and b match bit for bit (NaNs included).
func byteIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %x, want %x", label, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// permuteRHS assembles b in permuted row order for the in-place solve
// paths: slot i carries b[perm[i]] (equivalently, the contribution to
// unknown u lands at slot invPerm[u]).
func permuteRHS(lu *realLU, b []float64, lanes int) []float64 {
	x := make([]float64, len(b))
	for i := 0; i < lu.n; i++ {
		copy(x[i*lanes:i*lanes+lanes], b[lu.perm[i]*lanes:lu.perm[i]*lanes+lanes])
	}
	return x
}

// TestSolveInPlaceMatchesSolveInto: the DC solve (solveInto) and the
// in-place permuted-RHS walks — single-lane, widths 4, 8 and 16, and
// the generic widths — are byte-identical to the two-buffer
// element-wise reference on both the production zEC12 factor and
// randomized sparse factors.
func TestSolveInPlaceMatchesSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	factors := []*realLU{zec12LU(t)}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(20)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.6 {
					continue
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		factors = append(factors, lu)
	}
	for _, lu := range factors {
		n := lu.n
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		lu.solveIntoElementwise(want, b)
		x := permuteRHS(lu, b, 1)
		lu.solveInPlace(x)
		byteIdentical(t, "solveInPlace", x, want)
		dc := make([]float64, n)
		lu.solveInto(dc, b)
		byteIdentical(t, "solveInto", dc, want)
		for _, lanes := range []int{1, 3, 4, 5, 8, 16} {
			bb := make([]float64, n*lanes)
			for i := range bb {
				bb[i] = rng.NormFloat64()
			}
			wantB := make([]float64, n*lanes)
			lu.solveBatchIntoElementwise(wantB, bb, lanes)
			xb := permuteRHS(lu, bb, lanes)
			lu.solveBatchInPlace(xb, lanes)
			byteIdentical(t, "solveBatchInPlace", xb, wantB)
		}
	}
}

// TestSolveBatchInPlaceVectorMatchesGo pins the hand-written vector
// kernels to the pure-Go register-blocked walks bit for bit, on the
// production factor and randomized sparse factors, at every specialized
// width. Hosts without the vector path have nothing to compare and
// skip.
func TestSolveBatchInPlaceVectorMatchesGo(t *testing.T) {
	if !useSolveAVX2 {
		t.Skip("no AVX2 vector kernels on this host")
	}
	defer func() { useSolveAVX2 = true }()
	rng := rand.New(rand.NewSource(23))
	factors := []*realLU{zec12LU(t)}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(24)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					continue
				}
				a[i*n+j] = rng.NormFloat64()
			}
			a[i*n+i] += float64(n) + 1
		}
		lu, err := factorReal(a, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		factors = append(factors, lu)
	}
	for _, lu := range factors {
		for _, lanes := range []int{NarrowBatchLanes, DefaultBatchLanes, WideBatchLanes} {
			b := make([]float64, lu.n*lanes)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			vec := permuteRHS(lu, b, lanes)
			gop := permuteRHS(lu, b, lanes)
			useSolveAVX2 = true
			lu.solveBatchInPlace(vec, lanes)
			useSolveAVX2 = false
			lu.solveBatchInPlace(gop, lanes)
			useSolveAVX2 = true
			byteIdentical(t, "vector vs Go", vec, gop)
		}
	}
}

// BenchmarkInPlaceSolve measures the substitution kernels on the
// production factor: the in-place permuted-RHS solve at width 1, the
// generic walk at width 3, the register-blocked kernels at widths 4, 8
// and 16, and the DC operating-point solve (DC1, gather plus width-1
// walk, which reads a fixed b and needs no refill). Go4/Go8/Go16 force
// the pure-Go register blocks so the vector kernels' margin is visible
// on AVX2 hosts.
//
// Every in-place iteration refills the right-hand sides from a fixed
// source before solving: a solve repeated on its own output shrinks
// toward zero (on this factor max|x| is 1.9e-291 after 100 solves and
// exactly 0 after 200), so timing that would time solves of zeros. The
// CopyN entries time the refill alone; subtract them for the solve's
// cost.
func BenchmarkInPlaceSolve(b *testing.B) {
	lu := zec12LU(b)
	n := lu.n
	src := randomRHS(n * WideBatchLanes)
	x := make([]float64, len(src))
	solve := func(name string, lanes int, kernel func([]float64)) {
		b.Run(name, func(b *testing.B) {
			xs, bs := x[:n*lanes], src[:n*lanes]
			for i := 0; i < b.N; i++ {
				copy(xs, bs)
				kernel(xs)
			}
		})
	}
	noSolve := func([]float64) {}
	for _, lanes := range []int{1, 3, 4, DefaultBatchLanes, WideBatchLanes} {
		solve(fmt.Sprintf("Copy%d", lanes), lanes, noSolve)
	}
	b.Run("DC1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lu.solveInto(x[:n], src[:n])
		}
	})
	solve("InPlace1", 1, func(xs []float64) { lu.solveInPlace(xs) })
	batch := func(xs []float64) { lu.solveBatchInPlace(xs, len(xs)/n) }
	solve("InPlace3", 3, batch)
	solve("InPlace4", 4, batch)
	solve("InPlace8", DefaultBatchLanes, batch)
	solve("InPlace16", WideBatchLanes, batch)
	if useSolveAVX2 {
		defer func() { useSolveAVX2 = true }()
		useSolveAVX2 = false
		solve("Go4", 4, batch)
		solve("Go8", DefaultBatchLanes, batch)
		solve("Go16", WideBatchLanes, batch)
		useSolveAVX2 = true
	}
}

// randomRHS returns m standard-normal values from a fixed seed: the
// right-hand-side source the solve benchmarks refill from.
func randomRHS(m int) []float64 {
	rng := rand.New(rand.NewSource(1))
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// TestAutoBatchLanes pins the auto-width rule on both solve bodies:
// 16 lanes with the AVX2 kernels, 8 on the pure-Go walks.
func TestAutoBatchLanes(t *testing.T) {
	defer func(v bool) { useSolveAVX2 = v }(useSolveAVX2)
	for _, c := range []struct {
		vector bool
		want   int
	}{
		{true, WideBatchLanes},
		{false, DefaultBatchLanes},
	} {
		useSolveAVX2 = c.vector
		if got := AutoBatchLanes(); got != c.want {
			t.Errorf("useSolveAVX2=%v: AutoBatchLanes() = %d, want %d", c.vector, got, c.want)
		}
	}
}

// TestBatch16LanesMatchSingleLane extends the core lockstep contract to
// the register-blocked widths: every lane of a width-4 and a width-16
// batch stays bit-identical to a dedicated width-1 engine, on
// the RLC network and on the production zEC12 network (six loaded
// cores, lane-distinct waveforms), through both the vector and the
// pure-Go solve kernels.
func TestBatch16LanesMatchSingleLane(t *testing.T) {
	modes := []bool{useSolveAVX2}
	if useSolveAVX2 {
		modes = append(modes, false)
	}
	saved := useSolveAVX2
	defer func() { useSolveAVX2 = saved }()
	for _, vec := range modes {
		useSolveAVX2 = vec
		for _, lanes := range []int{NarrowBatchLanes, WideBatchLanes} {
			bt, out := newBatchRLC(t, lanes, 0)
			singles := make([]*BatchTransient, lanes)
			outs := make([]NodeID, lanes)
			for l := 0; l < lanes; l++ {
				ckt, o := rlcWithLoad(batchWave(l))
				tr, err := NewBatchTransientAt(ckt, 1e-9, 0, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				singles[l], outs[l] = tr, o
			}
			for i := 0; i < 3000; i++ {
				if err := bt.Step(); err != nil {
					t.Fatal(err)
				}
				for l := 0; l < lanes; l++ {
					if err := singles[l].Step(); err != nil {
						t.Fatal(err)
					}
					if got, want := bt.Voltage(l, out), singles[l].Voltage(0, outs[l]); got != want {
						t.Fatalf("vector=%v lanes=%d step %d lane %d: %v != %v", vec, lanes, i, l, got, want)
					}
				}
			}
			checkZEC12LanesMatchSingle(t, lanes, vec)
		}
	}
}

// checkZEC12LanesMatchSingle steps a zEC12 batch of the given width
// and one width-1 engine per lane, with the benchBatchStep
// loads, and requires every node potential of every lane to match its
// single-lane run bit for bit at every step.
func checkZEC12LanesMatchSingle(t *testing.T, lanes int, vec bool) {
	t.Helper()
	cur := 0
	ckt := zec12WithLaneLoads(&cur)
	bt, err := NewBatchTransientAt(ckt, 2e-9, 0, lanes, laneFill(ckt, &cur))
	if err != nil {
		t.Fatal(err)
	}
	singles := make([]*BatchTransient, lanes)
	for l := range singles {
		l := l
		if singles[l], err = NewBatchTransientAt(zec12WithLaneLoads(&l), 2e-9, 0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	nodes := bt.c.NumNodes()
	for i := 0; i < 1500; i++ {
		if err := bt.Step(); err != nil {
			t.Fatal(err)
		}
		for l, tr := range singles {
			if err := tr.Step(); err != nil {
				t.Fatal(err)
			}
			for node := 0; node < nodes; node++ {
				got, want := bt.Voltage(l, NodeID(node)), tr.Voltage(0, NodeID(node))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("zEC12 vector=%v lanes=%d step %d lane %d node %d: %v != %v", vec, lanes, i, l, node, got, want)
				}
			}
		}
	}
}
