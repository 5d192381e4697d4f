package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"voltnoise/internal/service"
	"voltnoise/internal/service/store"
	"voltnoise/internal/service/store/faultstore"
)

// readiness reads the structured /readyz body off the server's
// handler: "ready", or "degraded" with the reason.
func readiness(t *testing.T, srv *service.Server) service.Readiness {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rd service.Readiness
	if err := json.Unmarshal(rec.Body.Bytes(), &rd); err != nil {
		t.Fatalf("decoding /readyz body %q: %v", rec.Body.String(), err)
	}
	return rd
}

// TestStoreWriteFailureNeverFailsStudy: with every store Put failing,
// studies still succeed (they just are not cached), the failure is
// visible in /metrics and /readyz reports degraded with the reason,
// and the server heals once the store does.
func TestStoreWriteFailureNeverFailsStudy(t *testing.T) {
	ctx := testCtx(t)
	fs := faultstore.New(store.NewMemory(64))
	fs.FailPuts()
	srv, c := startServer(t, service.Config{Runner: labRunner, Store: fs})

	req := guardbandReq(1.5)
	first, cached, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("study failed under store write faults: %v", err)
	}
	if cached {
		t.Error("first run claims a cache hit")
	}
	// Nothing was cached, so the identical request recomputes — and
	// still produces byte-identical output.
	second, cached, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("recompute failed under store write faults: %v", err)
	}
	if cached {
		t.Error("cache hit despite failing store writes")
	}
	if !bytes.Equal(first, second) {
		t.Errorf("recompute differs:\n%s\n%s", first, second)
	}

	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StorePutErrors < 2 {
		t.Errorf("store_put_errors = %d, want >= 2", snap.StorePutErrors)
	}
	if snap.JobsFailed != 0 {
		t.Errorf("jobs_failed = %d, want 0 (store faults must not fail studies)", snap.JobsFailed)
	}
	rd := readiness(t, srv)
	if rd.Status != "degraded" || !contains(rd.Reason, "store writes failing") {
		t.Errorf("readyz = %+v, want degraded with write reason", rd)
	}
	// Ready (the binary probe) still answers OK: the server serves.
	if err := c.Ready(ctx); err != nil {
		t.Errorf("degraded server failed /readyz: %v", err)
	}

	// Heal the store: the next study caches again and readiness
	// recovers.
	fs.SetFault(nil)
	if _, _, err := c.Run(ctx, guardbandReq(2.5)); err != nil {
		t.Fatal(err)
	}
	if _, cached, err := c.Run(ctx, guardbandReq(2.5)); err != nil || !cached {
		t.Errorf("healed store not caching: hit=%v err=%v", cached, err)
	}
	rd = readiness(t, srv)
	if rd.Status != "ready" {
		t.Errorf("readyz after heal = %+v, want ready", rd)
	}
}

// TestStoreCorruptionDegradesToRecompute: a corrupt cache entry reads
// as a miss — the study recomputes byte-identically instead of
// serving garbage or erroring — and the corruption is observable.
func TestStoreCorruptionDegradesToRecompute(t *testing.T) {
	ctx := testCtx(t)
	fs := faultstore.New(store.NewMemory(64))
	srv, c := startServer(t, service.Config{Runner: labRunner, Store: fs})

	req := guardbandReq(3.0)
	first, _, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, cached, _ := c.Run(ctx, req); !cached {
		t.Fatal("healthy store missed")
	}

	fs.CorruptGets()
	body, cached, err := c.Run(ctx, req)
	if err != nil {
		t.Fatalf("study failed on corrupt cache entry: %v", err)
	}
	if cached {
		t.Error("corrupt entry served as a cache hit")
	}
	if !bytes.Equal(body, first) {
		t.Errorf("recompute after corruption differs:\n%s\n%s", body, first)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StoreGetErrors < 1 {
		t.Errorf("store_get_errors = %d, want >= 1", snap.StoreGetErrors)
	}
	rd := readiness(t, srv)
	if rd.Status != "degraded" || !contains(rd.Reason, "store reads failing") {
		t.Errorf("readyz = %+v, want degraded with read reason", rd)
	}

	// Heal: hits come back, readiness recovers.
	fs.SetFault(nil)
	if _, cached, err := c.Run(ctx, req); err != nil || !cached {
		t.Errorf("healed store: hit=%v err=%v", cached, err)
	}
	if rd := readiness(t, srv); rd.Status != "ready" {
		t.Errorf("readyz after heal = %+v, want ready", rd)
	}
}

// TestNthPutFailureIsInvisibleToClients: a single transient store
// blip costs one cached entry, nothing else.
func TestNthPutFailureIsInvisibleToClients(t *testing.T) {
	ctx := testCtx(t)
	fs := faultstore.New(store.NewMemory(64))
	fs.FailNth(faultstore.OpPut, 1)
	_, c := startServer(t, service.Config{Runner: labRunner, Store: fs})

	a, b := guardbandReq(4.0), guardbandReq(5.0)
	if _, _, err := c.Run(ctx, a); err != nil { // put #1 fails silently
		t.Fatal(err)
	}
	if _, _, err := c.Run(ctx, b); err != nil { // put #2 lands
		t.Fatal(err)
	}
	if _, cached, _ := c.Run(ctx, a); cached {
		t.Error("entry behind failed put claims a hit")
	}
	if _, cached, _ := c.Run(ctx, b); !cached {
		t.Error("entry after the blip missed")
	}
}
