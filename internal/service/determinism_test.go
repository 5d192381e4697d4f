package service_test

import (
	"bytes"
	"sync"
	"testing"

	"voltnoise/internal/service"
	"voltnoise/internal/service/store"
)

// TestServiceDeterminism is the service-level determinism guarantee:
// a cached response, a fresh computation on a brand-new server, and
// two concurrent identical requests all produce byte-identical
// bodies. This is what makes the content-addressed cache sound.
func TestServiceDeterminism(t *testing.T) {
	ctx := testCtx(t)
	req := sweepReq(2)

	// Fresh, then cached, on server 1.
	_, c1 := startServer(t, service.Config{Runner: labRunner})
	fresh, cached, err := c1.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first run claims a cache hit")
	}
	replay, cached, err := c1.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("identical re-run missed the cache")
	}
	if !bytes.Equal(fresh, replay) {
		t.Errorf("cached body differs from fresh:\n%s\n%s", fresh, replay)
	}

	// Fresh computation on a brand-new server (cold cache) matches too.
	_, c2 := startServer(t, service.Config{Runner: labRunner, Store: store.NewMemory(0)})
	cold, cached, err := c2.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("cache-disabled server reported a hit")
	}
	if !bytes.Equal(fresh, cold) {
		t.Errorf("fresh recomputation differs across servers:\n%s\n%s", fresh, cold)
	}

	// Two concurrent identical requests on a third cold server: whether
	// they collapse via singleflight or race into the cache, both
	// bodies must match the reference bytes.
	_, c3 := startServer(t, service.Config{Runner: labRunner, PoolSize: 2})
	bodies := make([][]byte, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], _, errs[i] = c3.Run(ctx, req)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !bytes.Equal(fresh, bodies[i]) {
			t.Errorf("concurrent run %d differs from reference:\n%s\n%s", i, fresh, bodies[i])
		}
	}
}

// TestWorkerCountInvariance: the Workers knob is scheduling-only — it
// neither changes the canonical hash nor the result bytes.
func TestWorkerCountInvariance(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, Store: store.NewMemory(0)})

	serial := sweepReq(2)
	serial.Workers = 1
	wide := sweepReq(2)
	wide.Workers = 8

	hs, err := serial.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hw, err := wide.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hs != hw {
		t.Fatalf("workers changed the canonical hash: %s vs %s", hs, hw)
	}

	b1, _, err := c.Run(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	b8, _, err := c.Run(ctx, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Errorf("workers=1 and workers=8 bodies differ:\n%s\n%s", b1, b8)
	}
}

// TestBatchWidthInvariance: the Batch knob is scheduling-only — like
// Workers it neither changes the canonical hash nor the result bytes,
// whether the study runs lane-per-run or packed into lockstep lanes,
// at every worker count of the stolen-chunk schedule — including
// the width-16 register-blocked kernel.
func TestBatchWidthInvariance(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, Store: store.NewMemory(0)})

	ref := sweepReq(3)
	ref.Workers, ref.Batch = 1, 1
	hr, err := ref.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := c.Run(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 3, 8, 16} {
			req := sweepReq(3)
			req.Workers, req.Batch = workers, batch
			h, err := req.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if h != hr {
				t.Fatalf("workers=%d batch=%d changed the canonical hash: %s vs %s", workers, batch, h, hr)
			}
			b, _, err := c.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b) {
				t.Errorf("workers=%d batch=%d body differs from serial:\n%s\n%s", workers, batch, b1, b)
			}
		}
	}
}

// TestPopulationBatchWidthInvariance runs the same scheduling grid
// over the population study end-to-end: the fleet's distribution
// summaries — quantile sketches included — must be byte-identical at
// batch {1,3,8,16} x workers {1,4,8} through the HTTP service.
func TestPopulationBatchWidthInvariance(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, Store: store.NewMemory(0)})

	ref := populationReq(13)
	ref.Workers, ref.Batch = 1, 1
	hr, err := ref.Hash()
	if err != nil {
		t.Fatal(err)
	}
	b1, _, err := c.Run(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 3, 8, 16} {
			req := populationReq(13)
			req.Workers, req.Batch = workers, batch
			h, err := req.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if h != hr {
				t.Fatalf("workers=%d batch=%d changed the canonical hash: %s vs %s", workers, batch, h, hr)
			}
			b, _, err := c.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b) {
				t.Errorf("workers=%d batch=%d population body differs from serial:\n%s\n%s", workers, batch, b1, b)
			}
		}
	}
}
