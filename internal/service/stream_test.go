package service_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
)

// watchAll streams a job's full event feed to completion and returns
// every event plus the watch's final error.
func watchAll(ctx context.Context, c *client.Client, id string) ([]*service.Event, error) {
	events, errc := c.Watch(ctx, id)
	var all []*service.Event
	for e := range events {
		all = append(all, e)
	}
	return all, <-errc
}

// checkStream verifies the stream invariants on a full replay: seqs
// start at 1 and increase by exactly 1, the first event is the hello
// carrying the request, and only the last event is terminal.
func checkStream(t *testing.T, events []*service.Event) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	for i, e := range events {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (gap or duplicate)", i, e.Seq, i+1)
		}
		if e.Terminal() != (i == len(events)-1) {
			t.Fatalf("event %d (%s): terminal event not last", i, e.Type)
		}
	}
	if events[0].Type != service.EventHello || events[0].Request == nil {
		t.Fatalf("stream does not open with a hello carrying the request: %+v", events[0])
	}
}

// watchAndAssemble submits the request, watches the job's stream to
// completion, checks the stream invariants, and verifies the
// client-assembled result is byte-identical to the server's blob and
// matches the done event's hash. Returns the blob.
func watchAndAssemble(t *testing.T, ctx context.Context, c *client.Client, req *service.Request) []byte {
	t.Helper()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	events, err := watchAll(ctx, c, st.ID)
	if err != nil {
		t.Fatalf("watch %s: %v", st.ID, err)
	}
	checkStream(t, events)
	done := events[len(events)-1]
	if done.Type != service.EventDone {
		t.Fatalf("job %s ended %s (%s)", st.ID, done.Type, done.Error)
	}
	blob, _, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result %s: %v", st.ID, err)
	}
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != done.ResultHash || len(blob) != done.ResultBytes {
		t.Fatalf("done event fingerprint %s/%d does not match blob %s/%d",
			done.ResultHash, done.ResultBytes, got, len(blob))
	}
	assembled, err := service.AssembleResult(events)
	if err != nil {
		t.Fatalf("assemble %s: %v", st.ID, err)
	}
	if !bytes.Equal(assembled, blob) {
		t.Fatalf("assembled result differs from blob:\nassembled: %s\nblob:      %s", assembled, blob)
	}
	return blob
}

// TestStreamDeterminismGrid re-runs the same sweep at every
// (workers, batch) grid point on fresh servers and demands (a) the
// stream carries partial events, (b) the client-assembled result is
// byte-identical to the blob at every point, and (c) all nine blobs
// are identical — scheduling knobs never leak into results or their
// stream reassembly.
func TestStreamDeterminismGrid(t *testing.T) {
	ctx := testCtx(t)
	var blobs [][]byte
	for _, workers := range []int{1, 4, 8} {
		for _, batch := range []int{1, 3, 8} {
			// A fresh server per cell: the canonical hash ignores
			// scheduling knobs, so a shared server would serve every
			// later cell from cache without re-running the study.
			_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
			req := sweepReq(5)
			req.Workers, req.Batch = workers, batch
			blob := watchAndAssemble(t, ctx, c, req)
			blobs = append(blobs, blob)
		}
	}
	for i, b := range blobs[1:] {
		if !bytes.Equal(b, blobs[0]) {
			t.Fatalf("grid cell %d result differs from cell 0:\n%s\n%s", i+1, b, blobs[0])
		}
	}
}

// TestStreamAssembleAllStudies covers the remaining streaming studies
// at one parallel grid point each: EPI profile, population, and two
// vmin walks, one that fails above its MinBias and one that does not.
func TestStreamAssembleAllStudies(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
	reqs := []*service.Request{
		{
			Study: service.StudyEPIProfile, Workers: 4, Batch: 3,
			EPIProfile: &service.EPIProfileParams{TopN: 3, MeasureCycles: 1024},
		},
		populationReq(12),
	}
	for _, req := range reqs {
		watchAndAssemble(t, ctx, c, req)
	}
	for _, w := range []struct {
		minBias float64
		failed  bool
	}{{0.92, true}, {0.98, false}} {
		blob := watchAndAssemble(t, ctx, c, &service.Request{
			Study: service.StudyVminWalk, Quick: true, Workers: 4, Batch: 3,
			VminWalk: &service.VminWalkParams{FreqHz: 2.5e6, Events: 10, MinBias: w.minBias},
		})
		var res service.VminWalkResult
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatal(err)
		}
		if res.Failed != w.failed {
			t.Errorf("vmin walk down to %g: failed %v, want %v (%s)", w.minBias, res.Failed, w.failed, blob)
		}
	}
}

// TestStreamPopulationResume is the acceptance shape: a population
// study at workers 8, batch 8, watched with the client fault hook
// severing the connection after every two events. The watch must
// resume with Last-Event-ID until done, and the assembled result must
// stay byte-identical to the blob.
func TestStreamPopulationResume(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
	req := populationReq(24)
	req.Workers, req.Batch = 8, 8
	c.StreamDropEvery = 2
	watchAndAssemble(t, ctx, c, req)
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.StreamsResumed == 0 {
		t.Fatalf("drop-every watch never resumed: %+v", snap)
	}
	if snap.EventsEmitted == 0 || snap.StreamsOpened < 2 {
		t.Fatalf("stream counters did not move: %+v", snap)
	}
}

// abortHandler force-closes the first /events response after allow
// frames, simulating a server-side connection loss mid-stream.
type abortHandler struct {
	h     http.Handler
	allow int32
	used  atomic.Bool
}

func (a *abortHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/events") && !a.used.Swap(true) {
		w = &abortWriter{ResponseWriter: w, allow: a.allow}
	}
	a.h.ServeHTTP(w, r)
}

type abortWriter struct {
	http.ResponseWriter
	allow int32
}

func (w *abortWriter) Write(b []byte) (int, error) {
	if w.allow <= 0 {
		panic(http.ErrAbortHandler)
	}
	w.allow -= int32(bytes.Count(b, []byte("\n\n")))
	return w.ResponseWriter.Write(b)
}

func (w *abortWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamResumeAfterServerDisconnect kills the first SSE response
// from the server side after two frames; the watch must reconnect with
// Last-Event-ID, deliver a gapless stream, and assemble the identical
// result.
func TestStreamResumeAfterServerDisconnect(t *testing.T) {
	ctx := testCtx(t)
	srv := service.NewServer(service.Config{Runner: labRunner, PoolSize: 1})
	ts := httptest.NewServer(&abortHandler{h: srv, allow: 2})
	t.Cleanup(func() {
		sdCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(sdCtx)
		ts.Close()
	})
	c := client.New(ts.URL)
	watchAndAssemble(t, ctx, c, sweepReq(4))
}

// TestStreamOverflowGone runs a study that outgrows a tiny retained
// window and checks the documented degradation: a from-scratch replay
// answers 410 Gone with the full-result fallback URL, Watch surfaces
// ErrEventsGone, a resume inside the window still streams, and the
// result blob stays served.
func TestStreamOverflowGone(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1, EventBuffer: 4})
	req := sweepReq(8)
	req.Workers, req.Batch = 1, 1 // one partial per point: 11 events through a 4-event window
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Raw replay from the beginning: the documented 410.
	resp, err := http.Get(c.Base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("replay of a trimmed stream: got %d, want 410", resp.StatusCode)
	}
	var gone struct {
		Error  string `json:"error"`
		Result string `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gone); err != nil {
		t.Fatalf("decoding 410 body: %v", err)
	}
	if gone.Result != "/v1/jobs/"+st.ID+"/result" {
		t.Fatalf("410 fallback URL %q", gone.Result)
	}

	// Watch sees the same condition as a typed error.
	if _, err := watchAll(ctx, c, st.ID); !errors.Is(err, client.ErrEventsGone) {
		t.Fatalf("watch of trimmed stream: got %v, want ErrEventsGone", err)
	}

	// A resume inside the retained window still works and ends with
	// the done event.
	status, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	inWindow := status.EventsEmitted - 2
	events, errc := c.WatchFrom(ctx, st.ID, inWindow)
	var tail []*service.Event
	for e := range events {
		tail = append(tail, e)
	}
	if err := <-errc; err != nil {
		t.Fatalf("in-window resume: %v", err)
	}
	if len(tail) != 2 || !tail[len(tail)-1].Terminal() {
		t.Fatalf("in-window resume delivered %d events, want 2 ending terminal", len(tail))
	}

	// The fallback the 410 points at still serves the blob.
	if _, _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatalf("result fallback: %v", err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if snap.EventsTrimmed == 0 || snap.StreamsGone == 0 {
		t.Fatalf("overflow counters did not move: %+v", snap)
	}
}

// TestStreamJobStatusProgress checks the progress counters a job's
// status reports during and after the run.
func TestStreamJobStatusProgress(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
	st, err := c.Submit(ctx, sweepReq(4))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatalf("wait: %v", err)
	}
	status, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatalf("job: %v", err)
	}
	if status.EventsEmitted == 0 {
		t.Fatalf("no events counted on the finished job: %+v", status)
	}
	if status.ChunksTotal == 0 || status.ChunksDone != status.ChunksTotal {
		t.Fatalf("chunk progress not complete: %d/%d", status.ChunksDone, status.ChunksTotal)
	}
}

// TestStreamGuardbandLifecycleOnly: the guardband study streams
// lifecycle events only (its result is one indivisible table), and
// AssembleResult reports that as ErrNoAssembly so callers fall back to
// the blob.
func TestStreamGuardbandLifecycleOnly(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
	st, err := c.Submit(ctx, guardbandReq(1.0))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	events, err := watchAll(ctx, c, st.ID)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	checkStream(t, events)
	for _, e := range events {
		if e.Type == service.EventPartial {
			t.Fatalf("guardband streamed a partial event: %+v", e)
		}
	}
	if _, err := service.AssembleResult(events); !errors.Is(err, service.ErrNoAssembly) {
		t.Fatalf("assemble: got %v, want ErrNoAssembly", err)
	}
	if _, _, err := c.Result(ctx, st.ID); err != nil {
		t.Fatalf("result fallback: %v", err)
	}
}

// TestStreamCachedJob: a duplicate submission served from cache still
// opens a coherent stream — hello then done, fingerprinting the cached
// blob.
func TestStreamCachedJob(t *testing.T) {
	ctx := testCtx(t)
	_, c := startServer(t, service.Config{Runner: labRunner, PoolSize: 1})
	first := watchAndAssemble(t, ctx, c, sweepReq(2))
	st, err := c.Submit(ctx, sweepReq(2))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	events, err := watchAll(ctx, c, st.ID)
	if err != nil {
		t.Fatalf("watch cached job: %v", err)
	}
	checkStream(t, events)
	done := events[len(events)-1]
	if done.Type != service.EventDone {
		t.Fatalf("cached job stream ended %s", done.Type)
	}
	sum := sha256.Sum256(first)
	if got := hex.EncodeToString(sum[:]); done.ResultHash != got {
		t.Fatalf("cached job done hash %s, want %s", done.ResultHash, got)
	}
}
