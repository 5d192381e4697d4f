package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSelfTimes checks self time on a span tree with a gap, concurrent
// children that overlap each other, and a child that outlives its
// parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "client.Submit", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "client.Watch", Start: 30, End: 90},
		{ID: 4, Parent: 3, Name: "service.Run", Start: 25, End: 60},  // starts before its parent
		{ID: 5, Parent: 3, Name: "store.Put", Start: 50, End: 70},    // overlaps its sibling
		{ID: 6, Parent: 1, Name: "client.Late", Start: 95, End: 120}, // ends after its parent
	}
	want := map[int64]int64{1: 100 - 10 - 60 - 5, 2: 10, 3: 60 - 40, 4: 35, 5: 20, 6: 25}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	rows := layerTable(spans)
	self := map[string]float64{}
	for _, r := range rows {
		self[r.Layer] = math.Round(r.Self * 1e6)
	}
	if self["client"] != 10+20+25 || self["bench"] != 25 || self["service"] != 35 || self["store"] != 20 {
		t.Errorf("layer self times %v", self)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// in step: the same workloads, and the same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []struct{ Name, Unit string }, emitted []metric) {
		if len(listed) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(emitted))
			return
		}
		for i, m := range listed {
			if m.Name != emitted[i].name || m.Unit != emitted[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, m.Name, m.Unit, emitted[i].name, emitted[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// TestSmoke runs every workload at the smallest size it allows and
// checks that no op fails and that the run reproduces the digest an
// earlier run pinned in golden.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 1, setups: 1, scratch: t.TempDir()}
			res, err := bench(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			if g := goldenDigest(w.name, 1); g != res.digest {
				t.Errorf("digest %s, golden.json has %q", res.digest, g)
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer
// metric and writes its spans.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the layer replays and donor workloads")
	}
	dir := t.TempDir()
	o := options{workload: "replay", seed: 2, trace: 1, setups: 1, scratch: dir, traceOut: filepath.Join(dir, "spans.json")}
	res, err := bench(context.Background(), o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayerMetrics) || res.Failed != 0 {
		t.Fatalf("%d metrics, %d failed", len(res.Metrics), res.Failed)
	}
	raw, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []span }
	if err := json.Unmarshal(raw, &trace); err != nil || len(trace.Spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(trace.Spans), err)
	}
}
