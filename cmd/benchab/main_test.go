package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// rec builds a correct run record with the given metric values.
func rec(attempted, failed int, vals map[string]float64) record {
	r := record{Correct: true, Attempted: attempted, Failed: failed}
	r.Metrics = make(map[string]struct{ Value float64 })
	for k, v := range vals {
		r.Metrics[k] = struct{ Value float64 }{v}
	}
	return r
}

// synthetic runs no benchmark: it hands out records made by base and
// change, keyed on the tree name gate passes it.
func synthetic(base, change func(seed int) record) runFunc {
	return func(_ context.Context, dir, _ string, seed int) (record, error) {
		if dir == "base" {
			return base(seed), nil
		}
		return change(seed), nil
	}
}

func oneWorkload(metrics ...metric) spec {
	sp := spec{RunSeconds: 1, EndToEnd: metrics}
	sp.Workloads = append(sp.Workloads, struct{ Name string }{"sweep"})
	return sp
}

var lowerP50 = metric{Name: "op_p50_ms", Better: "lower", Bound: 0.25}

func runGate(t *testing.T, sp spec, run runFunc) (string, error) {
	t.Helper()
	var out strings.Builder
	err := gate(context.Background(), sp, [2]string{"base", "change"}, run, &out)
	return out.String(), err
}

func TestRatioOrientation(t *testing.T) {
	if r := ratio(100, 110, "lower"); r < 1.0999 || r > 1.1001 {
		t.Errorf("lower metric 100 -> 110: ratio %v, want 1.1 (worse)", r)
	}
	if r := ratio(100, 110, "higher"); r < 0.9090 || r > 0.9092 {
		t.Errorf("higher metric 100 -> 110: ratio %v, want 0.909 (better)", r)
	}
	if r := ratio(0, 0, "lower"); r != 1 {
		t.Errorf("0 -> 0: ratio %v, want 1", r)
	}
}

// failsVerdict reports whether err is the gate's verdict that a row is
// past its limit, rather than a failed run.
func failsVerdict(err error) bool {
	return err != nil && strings.HasPrefix(err.Error(), "FAIL:")
}

func TestGateOrientsHigherMetrics(t *testing.T) {
	sp := oneWorkload(metric{Name: "ops_per_s", Better: "higher", Bound: 0.25})
	// Doubled throughput is better, however large the move.
	out, err := runGate(t, sp, synthetic(
		func(int) record { return rec(10, 0, map[string]float64{"ops_per_s": 10}) },
		func(int) record { return rec(20, 0, map[string]float64{"ops_per_s": 20}) }))
	if err != nil {
		t.Fatalf("doubled ops_per_s: %v\n%s", err, out)
	}
	// Halved throughput is a ratio of 2 and fails.
	out, err = runGate(t, sp, synthetic(
		func(int) record { return rec(10, 0, map[string]float64{"ops_per_s": 20}) },
		func(int) record { return rec(10, 0, map[string]float64{"ops_per_s": 10}) }))
	if !failsVerdict(err) || !strings.Contains(out, " 2.000 ") {
		t.Fatalf("halved ops_per_s: err %v, want a FAIL row at ratio 2\n%s", err, out)
	}
}

func TestGateBoundEdge(t *testing.T) {
	for _, tc := range []struct {
		change float64
		pass   bool
	}{{124.9, true}, {125.1, false}} {
		t.Run(fmt.Sprint(tc.change), func(t *testing.T) {
			out, err := runGate(t, oneWorkload(lowerP50), synthetic(
				func(int) record { return rec(10, 0, map[string]float64{"op_p50_ms": 100}) },
				func(int) record { return rec(10, 0, map[string]float64{"op_p50_ms": tc.change}) }))
			if tc.pass && err != nil || !tc.pass && !failsVerdict(err) {
				t.Fatalf("op_p50_ms 100 -> %v against bound 0.25: err %v, want pass %v\n%s", tc.change, err, tc.pass, out)
			}
		})
	}
}

func TestBootstrapIsDeterministic(t *testing.T) {
	xs := []float64{0.93, 1.08, 1.01, 0.97, 1.12, 0.99, 1.04, 0.95, 1.20, 1.02}
	lo1, hi1 := bootstrap(xs)
	lo2, hi2 := bootstrap(xs)
	if lo1 != lo2 || hi1 != hi2 {
		t.Fatalf("two bootstraps of the same ratios: [%v, %v] and [%v, %v]", lo1, hi1, lo2, hi2)
	}
	if m := median(xs); lo1 > m || hi1 < m || lo1 == hi1 {
		t.Fatalf("interval [%v, %v] does not bracket the median %v", lo1, hi1, m)
	}
}

func TestGateFailsOnHigherFailedShare(t *testing.T) {
	vals := map[string]float64{"op_p50_ms": 100}
	out, err := runGate(t, oneWorkload(lowerP50), synthetic(
		func(int) record { return rec(100, 1, vals) },
		func(seed int) record { return rec(100, 1+seed%2, vals) }))
	if !failsVerdict(err) || !strings.Contains(out, "10/1000") || !strings.Contains(out, "15/1000 FAIL") {
		t.Fatalf("change failing more ops than the base: err %v\n%s", err, out)
	}
}

func TestGateErrorsOnMissingMetric(t *testing.T) {
	with := func(int) record { return rec(10, 0, map[string]float64{"op_p50_ms": 100}) }
	without := func(int) record { return rec(10, 0, map[string]float64{"ops_per_s": 10}) }
	for side, run := range map[string]runFunc{"base": synthetic(without, with), "change": synthetic(with, without)} {
		_, err := runGate(t, oneWorkload(lowerP50), run)
		if err == nil || !strings.Contains(err.Error(), "op_p50_ms is missing from the "+side) {
			t.Errorf("metric missing on the %s side: err %v", side, err)
		}
	}
}

// fakeTree makes a tree whose bench/run.sh is the given script.
func fakeTree(t *testing.T, script string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bench", "run.sh"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

const goodRun = `echo "op_p50_ms 100 ms"; echo '{"correct":true,"attempted":10,"failed":0,"metrics":{"op_p50_ms":{"value":100,"unit":"ms"}}}'`

func TestGateFailsOnBadRuns(t *testing.T) {
	for name, tc := range map[string]struct{ script, want string }{
		"correct false": {`echo '{"correct":false,"attempted":10,"failed":1,"metrics":{"op_p50_ms":{"value":100,"unit":"ms"}}}'`, `"correct":false`},
		"non-zero exit": {goodRun + "; exit 3", "exit status 3"},
		"no result":     {`echo "op_p50_ms 100 ms"`, "result line"},
	} {
		t.Run(name, func(t *testing.T) {
			trees := [2]string{fakeTree(t, goodRun), fakeTree(t, tc.script)}
			err := gate(context.Background(), oneWorkload(lowerP50), trees, voltbench(1), io.Discard)
			if err == nil || !strings.Contains(err.Error(), "sweep seed 1 on the change") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v; want the change's seed 1 run to fail with %q", err, tc.want)
			}
		})
	}
	trees := [2]string{fakeTree(t, goodRun), fakeTree(t, goodRun)}
	if err := gate(context.Background(), oneWorkload(lowerP50), trees, voltbench(1), io.Discard); err != nil {
		t.Fatalf("two good trees: %v", err)
	}
}

func TestCheckBaseRefusesTreeWithoutBenchmark(t *testing.T) {
	if err := checkBase(t.TempDir()); err == nil || !strings.Contains(err.Error(), "predates the benchmark") {
		t.Fatalf("tree without bench/run.sh: err %v", err)
	}
	if err := checkBase(fakeTree(t, goodRun)); err != nil {
		t.Fatalf("tree with bench/run.sh: %v", err)
	}
}
