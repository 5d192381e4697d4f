// Command bench is the voltnoise benchmark. It drives one workload
// closed loop for a fixed time through the repository's public APIs,
// checks every output, and prints each metric as "name value unit"
// followed by one JSON line:
//
//	go run . --workload sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured untraced.
// With --trace 1 it measures the workload in alternating untraced and
// traced slices, replays every layer on fixed inputs, and reports the
// per-layer metrics; the spans go to a JSON file. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// golden.json pins the output digest of every workload at seeds 1 and 2.
//
//go:embed golden.json
var goldenJSON []byte

// runBudget bounds one run, set-up and checks included.
const runBudget = 170 * time.Second

// maxSetups caps the set-ups a run times.
const maxSetups = 25

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// The set-up is timed at least setups times, and again while the
	// timed set-ups total less than setupBudget, so that a set-up of a
	// few milliseconds is reported as the median of many. The last
	// one is measured.
	setups      int
	setupBudget time.Duration
	scratch     string // scratch root inside the checkout
	traceOut    string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	digest    string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: sweep, resonance, fleet, served or replay")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 15, "seconds of ops to measure")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "scratch directory for the served workloads' data")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		fs.Usage()
		return 2
	}
	o.setups, o.setupBudget = 5, 2*time.Second
	if o.trace == 1 {
		o.setups, o.setupBudget = 1, 0
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	res, err := bench(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

// bench runs one workload and returns its result.
func bench(ctx context.Context, o options, out io.Writer) (*result, error) {
	mk, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.scratch, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: o.seed, tmp: tmp, svc: newSvcStats()}
	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	hostBefore := hostProbe()

	var w workload
	var setup []float64
	var setupTotal time.Duration
	for i := 0; i < maxSetups && (i < o.setups || setupTotal < o.setupBudget); i++ {
		if w != nil {
			w.close()
		}
		w = mk(e)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setupTotal += d
		setup = append(setup, d.Seconds())
	}
	defer w.close()
	fmt.Fprintf(out, "# set-up seconds %v\n", setup)

	dur := time.Duration(o.seconds * float64(time.Second))
	var metrics map[string]float64
	var windows []window
	if o.trace == 0 {
		win := runWindow(ctx, w, dur)
		windows = append(windows, win)
		metrics = endToEnd(win, setup)
		lat := lats(win.ops)
		fmt.Fprintf(out, "# op latency ms over %d ops: min %.3f p10 %.3f p25 %.3f p50 %.3f p75 %.3f p90 %.3f max %.3f\n",
			len(lat), quantile(lat, 0), quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 1))
	} else {
		metrics, windows, err = traced(ctx, o, e, w, dur, out)
		if err != nil {
			return nil, err
		}
	}
	width := w.autoWidth()

	res := &result{Metrics: map[string]value{}}
	for _, win := range windows {
		res.Attempted += len(win.ops) + len(win.side)
		res.Failed += win.failed
		fmt.Fprintf(out, "# window %.3f s: %d ops, %d beside them, %d failed\n", win.wall.Seconds(), len(win.ops), len(win.side), win.failed)
		for _, err := range win.errs {
			fmt.Fprintf(out, "# op error: %v\n", err)
		}
	}
	checked, failed, digest, err := w.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	res.Failed += failed
	res.digest = digest
	golden := goldenDigest(o.workload, o.seed)
	switch {
	case golden == "":
		fmt.Fprintf(out, "# verify: %d checked against the reference, %d differ; digest %s (no golden digest for this seed)\n", checked, failed, digest)
	case golden == digest:
		fmt.Fprintf(out, "# verify: %d checked against the reference, %d differ; digest %s matches golden.json\n", checked, failed, digest)
	default:
		res.Failed++
		fmt.Fprintf(out, "# verify: %d checked against the reference, %d differ; digest %s, golden.json has %s\n", checked, failed, digest, golden)
	}
	hostAfter := hostProbe()
	fmt.Fprintf(out, "# host.sha256_mb_per_s before %.1f after %.1f\n", hostBefore, hostAfter)
	fmt.Fprintf(out, "# core.auto_width %d\n", width)
	fmt.Fprintf(out, "# peak resident %.1f MB at the end of the run\n", readRusage().maxRSS)
	if o.trace == 1 {
		metrics["host.sha256_mb_per_s"] = (hostBefore + hostAfter) / 2
		metrics["core.auto_width"] = float64(width)
	}

	defs := endToEndMetrics
	if o.trace == 1 {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(out, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	fmt.Fprintf(out, "# fail_ratio %g (%d of %d)\n", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// tracePairs is how many untraced and traced slices a traced run
// alternates, so that both halves sample the same stretches of host
// time and their difference is the tracing overhead.
const tracePairs = 3

// traced measures the workload in alternating untraced and traced
// slices, half the time each, replays every layer, fills metrics the
// workload's traffic cannot produce from donor workloads, and writes
// the spans.
func traced(ctx context.Context, o options, e *env, w workload, dur time.Duration, out io.Writer) (map[string]float64, []window, error) {
	rec := newRecorder()
	var windows []window
	var untracedLat []float64
	var win window // the traced slices, merged
	for i := 0; i < 2*tracePairs; i++ {
		if i%2 == 1 {
			e.rec.Store(rec)
		}
		s := runWindow(ctx, w, dur/(2*tracePairs))
		e.rec.Store(nil)
		windows = append(windows, s)
		if i%2 == 0 {
			untracedLat = append(untracedLat, lats(s.ops)...)
			continue
		}
		win.ops = append(win.ops, s.ops...)
		win.side = append(win.side, s.side...)
		win.wall += s.wall
		win.cpu += s.cpu
	}
	spans := rec.snapshot()
	own := analyze(win, spans, e.svc)
	m := own.m
	untraced, tracedLat := median(untracedLat), median(lats(win.ops))
	m["trace.overhead_pct"] = (tracedLat - untraced) / untraced * 100

	replayRec := &recorder{epoch: rec.epoch}
	eng := newEngine(ctx, replayRec)
	rep, err := replays(ctx, e, eng)
	if err != nil {
		return nil, nil, fmt.Errorf("layer replays: %w", err)
	}
	for k, v := range rep {
		if _, ok := m[k]; !ok {
			m[k] = v
		}
	}
	lanes := own
	for _, d := range donors {
		missing := missingMetrics(m, d.covers)
		if len(missing) == 0 || d.name == o.workload {
			continue
		}
		dt, err := donorTraffic(ctx, d.name, e)
		if err != nil {
			return nil, nil, fmt.Errorf("donor %s: %w", d.name, err)
		}
		for _, k := range missing {
			if v, ok := dt.m[k]; ok {
				m[k] = v
				fmt.Fprintf(out, "# %s measured on donor workload %s\n", k, d.name)
			}
		}
		if len(lanes.laneSteps) == 0 && len(dt.laneSteps) > 0 {
			lanes = dt
			fmt.Fprintf(out, "# lane-step model measured on donor workload %s\n", d.name)
		}
	}
	m["model.predicted_ns_per_lane_step"], m["model.residual_pct"], err = model(lanes, eng, rep["stressmark.power_ns"])
	if err != nil {
		return nil, nil, fmt.Errorf("lane-step model: %w", err)
	}

	rows := layerTable(spans)
	printLayerTable(out, rows)
	if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
		return nil, nil, err
	}
	replaySpans := replayRec.snapshot()
	if err := writeTrace(o.traceOut, rows, spans, replaySpans); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "# %d workload and %d replay spans written to %s\n", len(spans), len(replaySpans), o.traceOut)
	return m, windows, nil
}

// missingMetrics lists the per-layer metrics under the given name
// prefixes that are not yet measured.
func missingMetrics(m map[string]float64, prefixes []string) []string {
	var out []string
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				out = append(out, d.name)
				break
			}
		}
	}
	return out
}

// donorTraffic runs a donor workload's shortest traced window.
func donorTraffic(ctx context.Context, name string, parent *env) (traffic, error) {
	mk, err := lookupWorkload(name)
	if err != nil {
		return traffic{}, err
	}
	e := &env{seed: parent.seed, tmp: parent.tmp, svc: newSvcStats()}
	w := mk(e)
	defer w.close()
	if err := w.setup(ctx); err != nil {
		return traffic{}, err
	}
	rec := newRecorder()
	e.rec.Store(rec)
	win := runWindow(ctx, w, 0)
	e.rec.Store(nil)
	if win.failed > 0 {
		return traffic{}, errors.Join(win.errs...)
	}
	return analyze(win, rec.snapshot(), e.svc), nil
}

// goldenDigest returns the pinned digest of a workload at a seed, or ""
// when none is pinned.
func goldenDigest(workload string, seed uint64) string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return ""
	}
	return g[workload][strconv.FormatUint(seed, 10)]
}
