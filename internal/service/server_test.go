package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltnoise/internal/core"
	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
)

// labRunner is shared by every end-to-end test so the (quick)
// stressmark search runs once per test binary.
var labRunner = service.NewLabRunner()

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func startServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.NewServer(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return srv, client.New(ts.URL)
}

// sweepReq is a small but real study request (two-point quick sweep).
func sweepReq(points int) *service.Request {
	return &service.Request{
		Study:     service.StudyFreqSweep,
		Quick:     true,
		Workers:   2,
		FreqSweep: &service.FreqSweepParams{LoHz: 1e6, HiHz: 4e6, Points: points},
	}
}

// guardbandReq is a pure-computation study request (no measurements).
func guardbandReq(safety float64) *service.Request {
	droops := make([]float64, core.NumCores+1)
	for i := range droops {
		droops[i] = float64(i) * 1.5
	}
	return &service.Request{
		Study: service.StudyGuardband,
		Guardband: &service.GuardbandParams{
			Droops:        droops,
			SafetyPercent: safety,
			Trace: []service.UtilizationPhase{
				{ActiveCores: 1, DurationS: 6 * 3600},
				{ActiveCores: 6, DurationS: 4 * 3600},
				{ActiveCores: 2, DurationS: 6 * 3600},
			},
		},
	}
}

// populationReq is a small heterogeneous aged fleet: fast exits and a
// short warmup keep each chip's window to a few thousand steps.
func populationReq(chips int) *service.Request {
	return &service.Request{
		Study: service.StudyPopulation,
		Population: &service.PopulationParams{
			Chips:    chips,
			AgeYears: 5,
			Mix:      []string{"o3", "io", "o3", "io", "o3", "io"},
			TechNode: 22,
			ExitHz:   2e6,
			WarmupS:  4e-6,
			RLCBins:  2,
			Seed:     42,
		},
	}
}

// e2eRequests covers all five study kinds at test-friendly sizes.
func e2eRequests() []*service.Request {
	return []*service.Request{
		sweepReq(2),
		{
			Study:   service.StudyVminWalk,
			Quick:   true,
			Workers: 2,
			VminWalk: &service.VminWalkParams{
				FreqHz: 2.5e6, Events: 10, MinBias: 0.92,
			},
		},
		{
			Study:      service.StudyEPIProfile,
			Workers:    2,
			EPIProfile: &service.EPIProfileParams{TopN: 3, MeasureCycles: 1024},
		},
		guardbandReq(1.0),
		populationReq(6),
	}
}

// TestEndToEndAllStudies exercises the full async lifecycle for every
// study kind: submit, poll to completion, fetch the result, then
// verify the identical re-request is a byte-identical cache hit and
// the hit counter moved.
func TestEndToEndAllStudies(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 2})
	if err := c.Healthy(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz: %v", err)
	}
	studies, err := c.Studies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 5 {
		t.Fatalf("server lists %d studies, want 5: %v", len(studies), studies)
	}

	for _, req := range e2eRequests() {
		req := req
		t.Run(string(req.Study), func(t *testing.T) {
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cached {
				t.Fatal("first submission claims a cache hit")
			}
			fin, err := c.Wait(ctx, st.ID, 20*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if fin.Status != service.StateDone {
				t.Fatalf("job finished %s (error %q)", fin.Status, fin.Error)
			}
			fresh, cached, err := c.Result(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if cached {
				t.Error("fresh result labeled as cache hit")
			}
			if !json.Valid(fresh) {
				t.Fatalf("result is not JSON: %q", fresh)
			}

			before, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if !st2.Cached || st2.Status != service.StateDone {
				t.Fatalf("re-request not served from cache: %+v", st2)
			}
			if st2.Hash != st.Hash {
				t.Errorf("hash changed between submissions: %s vs %s", st2.Hash, st.Hash)
			}
			replay, cached, err := c.Result(ctx, st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !cached {
				t.Error("cached result not labeled as hit")
			}
			if !bytes.Equal(fresh, replay) {
				t.Errorf("cached result differs from fresh computation:\nfresh:  %s\ncached: %s", fresh, replay)
			}
			after, err := c.Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if after.CacheHits != before.CacheHits+1 {
				t.Errorf("cache hits %d -> %d, want +1", before.CacheHits, after.CacheHits)
			}
		})
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsDone != 5 || snap.JobsFailed != 0 {
		t.Errorf("jobs done/failed = %d/%d, want 5/0", snap.JobsDone, snap.JobsFailed)
	}
	if snap.CacheMisses != 5 || snap.CacheHits != 5 {
		t.Errorf("cache hits/misses = %d/%d, want 5/5", snap.CacheHits, snap.CacheMisses)
	}
	for s, stats := range snap.Studies {
		if stats.Latency.Count != stats.Done+stats.Failed {
			t.Errorf("%s: latency count %d != done+failed %d", s, stats.Latency.Count, stats.Done+stats.Failed)
		}
	}
}

// TestSyncEndpoint runs a cheap study synchronously, twice: miss then
// byte-identical hit.
func TestSyncEndpoint(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner})
	req := guardbandReq(2.0)
	first, cached, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first sync run claims a cache hit")
	}
	var res service.GuardbandResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	if res.MeanBias <= 0 || res.MeanBias > 1 {
		t.Errorf("mean bias %g outside (0, 1]", res.MeanBias)
	}
	second, cached, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second sync run missed the cache")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("sync replay differs:\n%s\n%s", first, second)
	}
}

// gateRunner blocks every run until released, so tests can hold a job
// "in flight" deterministically.
type gateRunner struct {
	calls   atomic.Int64
	started chan string
	release chan struct{}
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (g *gateRunner) Run(ctx context.Context, req *service.Request) (any, error) {
	g.calls.Add(1)
	g.started <- string(req.Study)
	select {
	case <-g.release:
		return map[string]string{"study": string(req.Study)}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestQueueBackpressure: with queue depth 1 and a slow job in flight,
// the excess submission gets HTTP 429 and the server drains cleanly
// on shutdown.
func TestQueueBackpressure(t *testing.T) {
	ctx := testCtx(t)
	gate := newGateRunner()
	srv, c := startServer(t, service.Config{Runner: gate, QueueDepth: 1, PoolSize: 1})

	stA, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // A is running; the queue is empty again
	stB, err := c.Submit(ctx, sweepReq(3))
	if err != nil {
		t.Fatal(err)
	}
	// The queue (depth 1) now holds B; the next distinct submission
	// must bounce with 429. Retries are disabled for this probe — the
	// default client would re-offer the request (by design; each
	// attempt is rejected again while the queue stays full) and the
	// per-attempt rejection count below asserts exactly one offer.
	noRetry := client.New(c.Base)
	noRetry.MaxAttempts = -1
	_, err = noRetry.Submit(ctx, sweepReq(4))
	if err == nil {
		t.Fatal("over-capacity submission accepted")
	}
	if want := fmt.Sprintf("HTTP %d", http.StatusTooManyRequests); !contains(err.Error(), want) {
		t.Fatalf("over-capacity error %q does not mention %s", err, want)
	}

	// Drain: release the gate and shut down; both jobs must complete.
	close(gate.release)
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	for _, st := range []*service.JobStatus{stA, stB} {
		got, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != service.StateDone {
			t.Errorf("job %s = %s after drain, want done", st.ID, got.Status)
		}
	}
	// Draining servers refuse new work and report not-ready.
	if _, err := noRetry.Submit(ctx, sweepReq(5)); err == nil {
		t.Error("draining server accepted a submission")
	}
	if err := c.Ready(ctx); err == nil {
		t.Error("draining server reports ready")
	}
	if err := c.Healthy(ctx); err != nil {
		t.Errorf("draining server failed healthz: %v", err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsRejected != 1 {
		t.Errorf("rejected = %d, want 1", snap.JobsRejected)
	}
	if gate.calls.Load() != 2 {
		t.Errorf("runner ran %d times, want 2", gate.calls.Load())
	}
}

// TestSingleflight: two concurrent identical submissions run the
// study once and read the same job.
func TestSingleflight(t *testing.T) {
	ctx := testCtx(t)
	gate := newGateRunner()
	_, c := startServer(t, service.Config{Runner: gate, PoolSize: 1})

	st1, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // job is in flight
	st2, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Deduped {
		t.Error("identical in-flight submission not deduplicated")
	}
	if st2.ID != st1.ID {
		t.Errorf("dedup returned job %s, want %s", st2.ID, st1.ID)
	}
	close(gate.release)
	if _, err := c.Wait(ctx, st1.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := gate.calls.Load(); n != 1 {
		t.Errorf("runner ran %d times for 2 identical submissions, want 1", n)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsDeduped != 1 {
		t.Errorf("deduped = %d, want 1", snap.JobsDeduped)
	}
}

// TestCancelQueuedJob: canceling a queued job prevents it from
// running.
func TestCancelQueuedJob(t *testing.T) {
	ctx := testCtx(t)
	gate := newGateRunner()
	_, c := startServer(t, service.Config{Runner: gate, QueueDepth: 2, PoolSize: 1})

	stA, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started
	stB, err := c.Submit(ctx, sweepReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, stB.ID); err != nil {
		t.Fatal(err)
	}
	close(gate.release)
	finB, err := c.Wait(ctx, stB.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if finB.Status != service.StateCanceled {
		t.Errorf("canceled job finished %s", finB.Status)
	}
	finA, err := c.Wait(ctx, stA.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if finA.Status != service.StateDone {
		t.Errorf("surviving job finished %s", finA.Status)
	}
	if n := gate.calls.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1 (canceled job must not run)", n)
	}
	if _, _, err := c.Result(ctx, stB.ID); err == nil {
		t.Error("canceled job served a result")
	}
}

// TestCancelQueuedJobEndsAtOnce: DELETE of a queued job ends it before
// any worker reaches it. Its status reads canceled at once, its stream
// closes with the canceled event, and it leaves the singleflight map,
// so an identical submission afterwards runs fresh instead of joining
// the canceled job.
func TestCancelQueuedJobEndsAtOnce(t *testing.T) {
	ctx := testCtx(t)
	gate := newGateRunner()
	_, c := startServer(t, service.Config{Runner: gate, QueueDepth: 2, PoolSize: 1})

	stA, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	<-gate.started // A holds the only worker; B stays queued
	stB, err := c.Submit(ctx, sweepReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, stB.ID); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Job(ctx, stB.ID); err != nil {
		t.Fatal(err)
	} else if got.Status != service.StateCanceled {
		t.Fatalf("queued job reads %s right after DELETE, want canceled", got.Status)
	}
	events, err := watchAll(ctx, c, stB.ID)
	if err != nil {
		t.Fatalf("watch canceled job: %v", err)
	}
	checkStream(t, events)
	if last := events[len(events)-1]; last.Type != service.EventCanceled || last.State != service.StateCanceled {
		t.Fatalf("canceled job stream ended %s/%s, want canceled", last.Type, last.State)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsQueued != 0 || snap.JobsCanceled != 1 {
		t.Errorf("after DELETE: jobs_queued %d, jobs_canceled %d; want 0 and 1", snap.JobsQueued, snap.JobsCanceled)
	}

	again, err := c.Submit(ctx, sweepReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID == stB.ID {
		t.Fatalf("resubmission joined the canceled job: %+v", again)
	}
	close(gate.release)
	for _, id := range []string{stA.ID, again.ID} {
		fin, err := c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Status != service.StateDone {
			t.Errorf("job %s finished %s, want done", id, fin.Status)
		}
	}
	if n := gate.calls.Load(); n != 2 {
		t.Errorf("runner ran %d times, want 2 (the canceled job must not run)", n)
	}
}

// TestCancelRacesStart: DELETEs racing the workers' starts end every
// job exactly once. Each job finishes done or canceled, its stream
// carries one terminal event that matches its status, and /metrics
// balances: nothing left queued or running, and every job counted
// once as done or canceled.
func TestCancelRacesStart(t *testing.T) {
	ctx := testCtx(t)
	quick := service.RunnerFunc(func(ctx context.Context, req *service.Request) (any, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return map[string]int{"points": req.FreqSweep.Points}, nil
	})
	srv, c := startServer(t, service.Config{Runner: quick, QueueDepth: 32, PoolSize: 2})
	const jobs = 16
	ids := make([]string, jobs)
	for i := range ids {
		st, err := c.Submit(ctx, sweepReq(2+i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := c.Cancel(ctx, id); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	for _, id := range ids {
		fin, err := c.Wait(ctx, id, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		events, err := watchAll(ctx, c, id)
		if err != nil {
			t.Fatalf("watch %s: %v", id, err)
		}
		checkStream(t, events)
		if last := events[len(events)-1]; last.State != fin.Status {
			t.Errorf("job %s reads %s but its stream ended %s", id, fin.Status, last.State)
		}
		if fin.Status != service.StateDone && fin.Status != service.StateCanceled {
			t.Errorf("job %s finished %s, want done or canceled", id, fin.Status)
		}
	}
	// Shutdown returns once the workers are idle, so the metrics of the
	// last job a worker ended are recorded.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsQueued != 0 || snap.JobsRunning != 0 || snap.JobsDone+snap.JobsCanceled != jobs {
		t.Errorf("metrics queued %d, running %d, done %d, canceled %d; want 0, 0 and %d ended",
			snap.JobsQueued, snap.JobsRunning, snap.JobsDone, snap.JobsCanceled, jobs)
	}
}

// TestRunnerPanicFailsJob: a panic in the runner fails the job with
// the panic value in its error, like any other failure, and the server
// keeps answering.
func TestRunnerPanicFailsJob(t *testing.T) {
	ctx := testCtx(t)
	boom := service.RunnerFunc(func(_ context.Context, req *service.Request) (any, error) {
		if req.Study == service.StudyFreqSweep {
			panic("sweep bounds collapsed")
		}
		return map[string]string{"study": string(req.Study)}, nil
	})
	_, c := startServer(t, service.Config{Runner: boom, PoolSize: 1})
	st, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != service.StateFailed || !contains(fin.Error, "sweep bounds collapsed") {
		t.Fatalf("panicking job = %+v, want failed with the panic value", fin)
	}
	// The worker survived: the next job runs on it.
	if _, _, err := c.Run(ctx, guardbandReq(1.0)); err != nil {
		t.Fatalf("server stopped answering after a runner panic: %v", err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsFailed != 1 || snap.JobsDone != 1 || snap.JobsRunning != 0 {
		t.Errorf("jobs_failed %d, jobs_done %d, jobs_running %d; want 1, 1, 0", snap.JobsFailed, snap.JobsDone, snap.JobsRunning)
	}
}

// TestFailedJob: a runner error surfaces as a failed job with the
// error text, and the result endpoint reports it.
func TestFailedJob(t *testing.T) {
	ctx := testCtx(t)
	boom := service.RunnerFunc(func(context.Context, *service.Request) (any, error) {
		return nil, fmt.Errorf("measurement exploded")
	})
	_, c := startServer(t, service.Config{Runner: boom})
	st, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != service.StateFailed || !contains(fin.Error, "exploded") {
		t.Errorf("job = %+v, want failed with cause", fin)
	}
	if _, _, err := c.Result(ctx, st.ID); err == nil || !contains(err.Error(), "exploded") {
		t.Errorf("result error %v does not carry the cause", err)
	}
	// Failures are never cached: a re-request runs again.
	st2, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached {
		t.Error("failed result served from cache")
	}
}

// TestBadRequests: the HTTP layer rejects malformed bodies and
// unknown routes cleanly.
func TestBadRequests(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: newGateRunner()})
	if _, err := c.Submit(ctx, &service.Request{Study: "nope"}); err == nil {
		t.Error("unknown study accepted")
	}
	if _, err := c.Job(ctx, "j-999999"); err == nil {
		t.Error("unknown job id accepted")
	}
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json", bytes.NewReader([]byte(`{"study": "freq_sweep", "bogus": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field got HTTP %d, want 400", resp.StatusCode)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }

// TestCancelRunningJob: canceling a job that a worker has already
// picked up interrupts the measurement mid-sweep — the context is
// threaded through the study engine down to the integration loop — and
// the job finishes canceled long before the sweep would complete.
func TestCancelRunningJob(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})

	// A sweep big enough to take many seconds if left alone.
	st, err := c.Submit(ctx, sweepReq(40))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running (status %s)", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != service.StateCanceled {
		t.Fatalf("canceled running job finished %s", fin.Status)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.JobsCanceled < 1 {
		t.Errorf("jobs_canceled = %d, want >= 1", snap.JobsCanceled)
	}
}
