package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one set of inputs the benchmark drives closed loop: each
// client issues its next op only after the previous one returned.
type workload interface {
	clients() int
	// minOps is the op count per client a window runs even when its
	// time is up, so that every input the checks cover has run. Peak
	// memory is read when every client has run it, so that it covers
	// the same work however fast the ops go.
	minOps() int
	// setup builds the system under test and runs one untimed warm-up op.
	setup(ctx context.Context) error
	op(ctx context.Context, c call) opStat
	// verify checks the outputs the window produced against references
	// and returns the digest that golden.json pins for seeds 1 and 2.
	verify(ctx context.Context) (checked, failed int, digest string, err error)
	// autoWidth is the lane width the workload's session pool calibrated.
	autoWidth() int
	close()
}

// workloads maps names to constructors, in the order BENCHMARK.json
// lists them.
var workloads = []struct {
	name string
	make func(*env) workload
}{
	{"sweep", newSweep},
	{"resonance", newResonance},
	{"fleet", newFleet},
	{"served", newServed},
	{"replay", newReplay},
}

func lookupWorkload(name string) (func(*env) workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// env is what a workload shares with the benchmark: the run seed, a
// scratch directory inside the checkout, and, during a traced window,
// the span recorder and the service-layer samples.
type env struct {
	seed uint64
	tmp  string
	rec  atomic.Pointer[recorder]
	svc  *svcStats
}

func (e *env) recorder() *recorder { return e.rec.Load() }

// rng derives a generator for one input stream from the run seed.
func (e *env) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(e.seed, stream)) }

// tempDir makes a scratch directory under the run's scratch root.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// call identifies one op: the client issuing it, its index in that
// client's sequence, and its trace op id.
type call struct {
	client, k int
	id        int64
}

// opStat is what one op reports.
type opStat struct {
	// side marks traffic that runs beside the workload's measured ops
	// (the served workload's cache-hit replays).
	side bool
	// hit marks a replay of an already computed request.
	hit   bool
	lat   time.Duration // start to final result
	marks []mark        // partial results in arrival order
	// laneSteps counts the engine lane-steps the op advanced, by the
	// width of the lockstep batch that advanced them.
	laneSteps map[int]int64
	// powerEvals counts the stressmark Workload.Power calls those
	// lane-steps made.
	powerEvals int64
	chips      int // population chips measured
	runs       int // resonance-search measurement runs
	events     int // job-stream events received
	err        error
}

// mark is one partial result: when it arrived and how many items
// (lanes, chips or instructions) it carried.
type mark struct {
	at    time.Duration
	items int
}

func (s *opStat) mark(t0 time.Time, items int) {
	s.marks = append(s.marks, mark{at: time.Since(t0), items: items})
}

func (s *opStat) finish(t0 time.Time) { s.lat = time.Since(t0) }

// window is the outcome of running a workload for a while.
type window struct {
	ops    []opStat // measured ops, in completion order
	side   []opStat
	failed int
	errs   []error
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64  // bytes allocated during the window
	rss    float64 // peak resident MB when every client had run minOps ops
}

// maxErrs bounds the op errors a window keeps for the report.
const maxErrs = 5

// runWindow drives the workload's clients until dur has passed and each
// has issued at least minOps ops.
func runWindow(ctx context.Context, w workload, dur time.Duration) window {
	var (
		mu      sync.Mutex
		win     window
		ids     atomic.Int64
		wg      sync.WaitGroup
		pending = w.clients() // clients still short of minOps
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ru0 := readRusage()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil && (k < w.minOps() || time.Now().Before(deadline)); k++ {
				st := w.op(ctx, call{client: c, k: k, id: ids.Add(1)})
				mu.Lock()
				if st.side {
					win.side = append(win.side, st)
				} else {
					win.ops = append(win.ops, st)
				}
				if st.err != nil {
					win.failed++
					if len(win.errs) < maxErrs {
						win.errs = append(win.errs, st.err)
					}
				}
				if k == w.minOps()-1 {
					if pending--; pending == 0 {
						win.rss = readRusage().maxRSS
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.cpu = readRusage().cpu - ru0.cpu
	runtime.ReadMemStats(&m1)
	win.alloc = m1.TotalAlloc - m0.TotalAlloc
	return win
}

// lats returns the ops' latencies in ms.
func lats(ops []opStat) []float64 {
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = ms(o.lat)
	}
	return lat
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(win window, setup []float64) map[string]float64 {
	lat := lats(win.ops)
	n := float64(len(win.ops))
	return map[string]float64{
		"setup_s":         median(setup),
		"op_p50_ms":       quantile(lat, 0.5),
		"ops_per_s":       n / win.wall.Seconds(),
		"alloc_mb_per_op": float64(win.alloc) / 1e6 / n,
		"max_rss_mb":      win.rss,
	}
}
