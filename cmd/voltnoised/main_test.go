package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voltnoise/internal/service"
)

// startTestServer serves a fast fake runner so ctl verbs are cheap.
func startTestServer(t *testing.T) string {
	t.Helper()
	runner := service.RunnerFunc(func(ctx context.Context, req *service.Request) (any, error) {
		return map[string]string{"study": string(req.Study)}, nil
	})
	srv := service.NewServer(service.Config{Runner: runner})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
	})
	return ts.URL
}

const inlineSweep = `{"study": "freq_sweep", "quick": true, "freq_sweep": {"lo_hz": 1e6, "hi_hz": 4e6, "points": 2}}`

func ctl(t *testing.T, addr string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(append([]string{"ctl", "-addr", addr}, args...), &out)
	return out.String(), err
}

func TestRunUsageErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{},
		{"bogus"},
		{"ctl"},
		{"ctl", "-addr", "http://127.0.0.1:1", "frobnicate"},
		{"ctl", "-addr", "http://x", "submit"}, // missing argument
		{"serve", "-bogus"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

func TestCtlStudiesHealthMetrics(t *testing.T) {
	addr := startTestServer(t)
	out, err := ctl(t, addr, "studies")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range service.Studies() {
		if !strings.Contains(out, string(s)) {
			t.Errorf("studies output missing %s:\n%s", s, out)
		}
	}
	out, err = ctl(t, addr, "health")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "healthy, ready" {
		t.Errorf("health = %q", out)
	}
	out, err = ctl(t, addr, "metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap service.MetricsSnapshot
	if err := json.Unmarshal([]byte(out), &snap); err != nil {
		t.Fatalf("metrics output is not a snapshot: %v\n%s", err, out)
	}
}

func TestCtlJobLifecycle(t *testing.T) {
	addr := startTestServer(t)
	out, err := ctl(t, addr, "submit", inlineSweep)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit output: %v\n%s", err, out)
	}
	if st.ID == "" {
		t.Fatalf("submit returned no job id: %s", out)
	}

	out, err = ctl(t, addr, "wait", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var fin service.JobStatus
	if err := json.Unmarshal([]byte(out), &fin); err != nil {
		t.Fatal(err)
	}
	if fin.Status != service.StateDone {
		t.Fatalf("job finished %s", fin.Status)
	}

	out, err = ctl(t, addr, "status", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(service.StateDone)) {
		t.Errorf("status output: %s", out)
	}

	out, err = ctl(t, addr, "result", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != `{"study":"freq_sweep"}` {
		t.Errorf("result = %q", out)
	}
}

// TestCtlWatch: watch streams "# " progress lines and prints the
// result JSON last — the fake runner streams no partials, so watch
// reports the assembly fallback and fetches the blob, which must
// match ctl result byte for byte.
func TestCtlWatch(t *testing.T) {
	addr := startTestServer(t)
	out, err := ctl(t, addr, "submit", inlineSweep)
	if err != nil {
		t.Fatal(err)
	}
	var st service.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("submit output: %v\n%s", err, out)
	}
	out, err = ctl(t, addr, "watch", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var progress, payload []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# ") {
			progress = append(progress, line)
		} else {
			payload = append(payload, line)
		}
	}
	if len(progress) == 0 || !strings.Contains(progress[0], "hello") {
		t.Fatalf("watch did not narrate the stream:\n%s", out)
	}
	res, err := ctl(t, addr, "result", st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(payload, "\n") + "\n"; got != res {
		t.Fatalf("watch payload %q differs from result %q", got, res)
	}
}

func TestCtlRunFromFileAndCache(t *testing.T) {
	addr := startTestServer(t)
	path := filepath.Join(t.TempDir(), "req.json")
	if err := os.WriteFile(path, []byte(inlineSweep), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, addr, "run", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cache: miss") {
		t.Errorf("first run output: %s", out)
	}
	out, err = ctl(t, addr, "run", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cache: hit") {
		t.Errorf("second run output: %s", out)
	}
}

// TestPprofListener: startPprof serves the /debug/pprof index on its
// own listener, and only profiling paths — the service API surface is
// not on it.
func TestPprofListener(t *testing.T) {
	srv, addr, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index does not list profiles:\n%s", body)
	}
	resp, err = http.Get(base + "/v1/studies")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("service path on the pprof listener answered %d, want 404", resp.StatusCode)
	}
}

func TestReadRequestRejectsUnknownFields(t *testing.T) {
	if _, err := readRequest(`{"study": "freq_sweep", "bogus": 1}`); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := readRequest("/no/such/file.json"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestResultStoreCacheFlag pins what -cache means: N >= 1 keeps N
// results in memory, 0 and negative values keep none, and with
// -data-dir the disk store behind the LRU still serves a result.
func TestResultStoreCacheFlag(t *testing.T) {
	for _, tc := range []struct {
		cache   int
		dataDir string
		hit     bool
	}{
		{256, "", true},
		{1, "", true},
		{0, "", false},
		{-1, "", false},
		{0, t.TempDir(), true},
	} {
		st, err := resultStore(tc.cache, tc.dataDir, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		hash := strings.Repeat("ab", 32)
		if err := st.Put(hash, []byte("result")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := st.Get(hash); err != nil || ok != tc.hit {
			t.Errorf("-cache %d -data-dir %q: Get hit=%v err=%v, want hit=%v", tc.cache, tc.dataDir, ok, err, tc.hit)
		}
	}
}
