package noise

import (
	"context"
	"reflect"
	"testing"

	"voltnoise/internal/exec"
	"voltnoise/internal/mapping"
	"voltnoise/internal/pdn"
	"voltnoise/internal/progress"
)

// Batch determinism suite: every study that packs its measurement runs
// into lockstep batch lanes must produce bit-identical results at
// every (workers, batch) combination. The lanes of a batch session
// perform exactly the arithmetic of a dedicated single-lane session,
// and every reduction is ordered, so batching is purely a scheduling
// choice — like Workers, it must never move a number.

// batchGrid is the (workers, batch) matrix every batched study is
// checked across, against the serial lane-per-run baseline: batch
// knobs {0, 1, 3, 4, 8, 16} (auto, lane-per-run, a ragged width, and
// the three register-blocked widths) crossed with worker counts
// {1, 4, 8} (serial, a stealing pool smaller than the chunk count, one
// worker per chunk). A knob wider than a study's run count resolves to
// that count, so the grid reaches width 16 only in studies with at
// least 16 runs (the frequency sweep below).
var batchGrid = []struct{ workers, batch int }{
	{1, 0}, {1, 1}, {1, 3}, {1, 4}, {1, 8}, {1, 16},
	{4, 0}, {4, 1}, {4, 3}, {4, 4}, {4, 8}, {4, 16},
	{8, 0}, {8, 1}, {8, 3}, {8, 4}, {8, 8}, {8, 16},
}

// withWorkersBatch returns a copy of the shared test lab pinned to the
// given worker count and batch width.
func withWorkersBatch(t *testing.T, workers, batch int) *Lab {
	l := withWorkers(t, workers)
	l.Batch = batch
	return l
}

// TestFrequencySweepBatchDeterminism sweeps 16 frequencies, so batch
// 16 runs one full 16-lane batch (as does auto on one worker on AVX2
// hosts) and batch 4 runs four 4-lane batches.
func TestFrequencySweepBatchDeterminism(t *testing.T) {
	freqs := make([]float64, 16)
	for i := range freqs {
		freqs[i] = 1e6 + 0.2e6*float64(i)
	}
	run := func(workers, batch int) []FreqPoint {
		pts, err := withWorkersBatch(t, workers, batch).FrequencySweep(context.Background(), freqs, true, 200)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	want := run(1, 1)
	for _, g := range batchGrid {
		if got := run(g.workers, g.batch); !reflect.DeepEqual(want, got) {
			t.Errorf("FrequencySweep workers=%d batch=%d differs from serial:\n%v\n%v",
				g.workers, g.batch, want, got)
		}
	}
}

func TestMisalignmentSweepBatchDeterminism(t *testing.T) {
	run := func(workers, batch int) []MisalignPoint {
		pts, err := withWorkersBatch(t, workers, batch).MisalignmentSweep(context.Background(), 2e6, []int{0, 2}, 100, 3)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	want := run(1, 1)
	for _, g := range batchGrid {
		if got := run(g.workers, g.batch); !reflect.DeepEqual(want, got) {
			t.Errorf("MisalignmentSweep workers=%d batch=%d differs from serial:\n%v\n%v",
				g.workers, g.batch, want, got)
		}
	}
}

func TestMappingRunsBatchDeterminism(t *testing.T) {
	assigns := [][6]WorkloadKind{
		{KindMax, KindIdle, KindIdle, KindIdle, KindIdle, KindIdle},
		{KindMax, KindMedium, KindIdle, KindIdle, KindIdle, KindIdle},
		{KindMax, KindMax, KindMedium, KindMedium, KindIdle, KindIdle},
		{KindMax, KindMax, KindMax, KindMax, KindMax, KindMax},
	}
	run := func(workers, batch int) []MappingRun {
		runs, err := withWorkersBatch(t, workers, batch).runMappings(context.Background(), 2e6, 50, assigns)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	want := run(1, 1)
	for _, g := range batchGrid {
		if got := run(g.workers, g.batch); !reflect.DeepEqual(want, got) {
			t.Errorf("runMappings workers=%d batch=%d differs from serial:\n%v\n%v",
				g.workers, g.batch, want, got)
		}
	}
}

func TestMappingOpportunityBatchDeterminism(t *testing.T) {
	run := func(workers, batch int) []mapping.Opportunity {
		ops, err := withWorkersBatch(t, workers, batch).MappingOpportunity(context.Background(), 2e6, 50, []int{2})
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	want := run(1, 1)
	for _, g := range batchGrid {
		if got := run(g.workers, g.batch); !reflect.DeepEqual(want, got) {
			t.Errorf("MappingOpportunity workers=%d batch=%d differs from serial:\n%+v\n%+v",
				g.workers, g.batch, want, got)
		}
	}
}

// TestBatchSweepColdVsWarmPool: the batched sweep's cold run builds
// its pooled batch sessions; the warm run reuses them. Both must be
// bit-identical — session-reuse determinism lifted to batch lanes.
func TestBatchSweepColdVsWarmPool(t *testing.T) {
	freqs := []float64{1e6, 2e6, 3e6}
	l := withWorkersBatch(t, 4, 3)
	cold, err := l.FrequencySweep(context.Background(), freqs, true, 200)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := l.FrequencySweep(context.Background(), freqs, true, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("cold vs warm batch pool differ:\n%v\n%v", cold, warm)
	}
}

// TestBatchStudyCancellation: a pre-canceled context aborts a batched
// sweep, and the lab stays usable afterwards.
func TestBatchStudyCancellation(t *testing.T) {
	l := withWorkersBatch(t, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.FrequencySweep(ctx, []float64{1e6, 2e6, 3e6}, true, 200); err != context.Canceled {
		t.Fatalf("canceled batched sweep returned %v, want context.Canceled", err)
	}
	if _, err := l.FrequencySweep(context.Background(), []float64{2e6}, false, 0); err != nil {
		t.Fatalf("lab unusable after canceled batched sweep: %v", err)
	}
}

// TestFindResonanceBatchDeterminism checks the search's rounds —
// each one batch spread over the workers — land on the serial
// width-1 answer, run count included, at every (workers, batch).
func TestFindResonanceBatchDeterminism(t *testing.T) {
	type answer struct {
		freq, worst float64
		runs        int
	}
	run := func(workers, batch int) answer {
		f, w, n, err := withWorkersBatch(t, workers, batch).FindResonance(context.Background(), 1e6, 4e6, 4, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		return answer{f, w, n}
	}
	want := run(1, 1)
	if want.runs <= 4 {
		t.Fatalf("search ended after the coarse round (%d runs); the refine rounds go unchecked", want.runs)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 1, 3, 8, 16} {
			if got := run(workers, batch); got != want {
				t.Errorf("FindResonance workers=%d batch=%d = %+v, serial width-1 %+v", workers, batch, got, want)
			}
		}
	}
}

// TestBatchProgressDeterminism checks the progress stream is a pure
// function of the request: at every (workers, batch), the chunks of a
// sweep arrive in job order and cut it exactly where exec.Chunks cuts
// it at the resolved lane width — no worker count reorders them.
func TestBatchProgressDeterminism(t *testing.T) {
	freqs := pdn.LogSpace(100e3, 20e6, 32)
	order := make([]int, len(freqs))
	for i := range order {
		order[i] = i
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 3, 8, 16} {
			l := withWorkersBatch(t, workers, batch)
			var jobs []int
			var bounds [][2]int
			l.Progress = func(ev progress.Event) {
				cr := ev.Payload.(ChunkResult)
				bounds = append(bounds, [2]int{len(jobs), len(jobs) + len(cr.Jobs)})
				jobs = append(jobs, cr.Jobs...)
			}
			if _, err := l.FrequencySweep(context.Background(), freqs, false, 0); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(jobs, order) {
				t.Errorf("workers=%d batch=%d: jobs %v, want 0..%d in order", workers, batch, jobs, len(freqs)-1)
			}
			width := exec.BatchWidthAuto(batch, len(freqs), workers, pdn.AutoBatchLanes())
			if want := exec.Chunks(len(freqs), width); !reflect.DeepEqual(bounds, want) {
				t.Errorf("workers=%d batch=%d: chunks %v, want %v", workers, batch, bounds, want)
			}
		}
	}
}
