package main

import (
	"math"
	"runtime"

	"voltnoise/internal/service"
)

// metric names a reported number and its unit. BENCHMARK.json lists
// the same names; the package test keeps the two in step.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, measured with
// tracing off.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"max_rss_mb", "MB"},
}

// perLayerMetrics come from a traced run: the workload's own traffic
// where it reaches a layer, a donor workload's where it does not (see
// donors), and the layer replays.
var perLayerMetrics = []metric{
	{"pdn.step_ns.w1", "ns"},
	{"pdn.step_ns.w3", "ns"},
	{"pdn.step_ns.w8", "ns"},
	{"pdn.step_ns.w16", "ns"},
	{"core.overhead_ns_per_lane_step.w1", "ns"},
	{"core.overhead_ns_per_lane_step.w3", "ns"},
	{"core.overhead_ns_per_lane_step.w8", "ns"},
	{"core.overhead_ns_per_lane_step.w16", "ns"},
	{"stressmark.power_ns", "ns"},
	{"skitter.sample_ns", "ns"},
	{"core.platform_new_ms", "ms"},
	{"core.calibrate_ms", "ms"},
	{"core.pool_get_us", "us"},
	{"core.auto_width", "lanes"},
	{"core.lane_steps", "count"},
	{"core.ns_per_lane_step", "ns"},
	{"model.predicted_ns_per_lane_step", "ns"},
	{"model.residual_pct", "%"},
	{"exec.chunks", "count"},
	{"exec.lanes_per_chunk", "count"},
	{"exec.first_chunk_ms", "ms"},
	{"exec.chunk_gap_ms_p50", "ms"},
	{"exec.tail_ms", "ms"},
	{"exec.parallel_efficiency", "ratio"},
	{"noise.impedance_ms", "ms"},
	{"noise.resonance_runs", "count"},
	{"population.fold_ms", "ms"},
	{"population.chips_per_s", "1/s"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.runner_ms_p50.epi_profile", "ms"},
	{"service.runner_ms_p50.population", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.hit_p50_ms", "ms"},
	{"service.hit_p99_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"events.per_job", "count"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.gets_per_op", "count"},
	{"store.puts_per_op", "count"},
	{"journal.append_us_p50", "us"},
	{"host.sha256_mb_per_s", "MB/s"},
	{"trace.overhead_pct", "%"},
}

// donors are the workloads that measure, for a workload whose own
// traffic never reaches a layer, that layer's metrics: sweep for the
// scheduler and the lane-step engine, served for the service, its
// store and its event stream, resonance for the search. covers lists
// the metric name prefixes each donor is run for.
var donors = []struct {
	name   string
	covers []string
}{
	{"sweep", []string{"exec.", "core.lane_steps", "core.ns_per_lane_step"}},
	{"served", []string{"service.", "store.", "events."}},
	{"resonance", []string{"noise.resonance_runs"}},
}

// traffic is a traced window's own-traffic metrics plus what the
// lane-step model needs.
type traffic struct {
	m map[string]float64
	// laneSteps and powerEvals total the window's engine work by batch
	// width (see opStat); cpu is the window's process CPU time.
	laneSteps  map[int]int64
	powerEvals int64
	cpu        float64 // ns
}

// analyze derives per-layer metrics from a traced window. A metric
// with no samples in the window is left out, so a donor can fill it.
func analyze(win window, spans []span, svc *svcStats) traffic {
	t := traffic{m: map[string]float64{}, laneSteps: map[int]int64{}, cpu: float64(win.cpu)}
	m := t.m
	n := float64(len(win.ops))
	m["exec.parallel_efficiency"] = win.cpu.Seconds() / (win.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))

	var marks, items, runs, withRuns, events, withEvents int
	var first, gaps, tails, hitLat []float64
	var hits, hitOK int
	var chips int
	var chipSec float64
	var laneTotal int64
	for _, o := range append(append([]opStat(nil), win.ops...), win.side...) {
		for w, s := range o.laneSteps {
			t.laneSteps[w] += s
			laneTotal += s
		}
		t.powerEvals += o.powerEvals
		if o.hit {
			hits++
			hitLat = append(hitLat, ms(o.lat))
			if o.err == nil {
				hitOK++
			}
		}
		if o.side {
			continue
		}
		if len(o.marks) > 0 {
			first = append(first, ms(o.marks[0].at))
			for i, mk := range o.marks {
				items += mk.items
				if i > 0 {
					gaps = append(gaps, ms(mk.at-o.marks[i-1].at))
				}
			}
			tails = append(tails, ms(o.lat-o.marks[len(o.marks)-1].at))
		}
		marks += len(o.marks)
		if o.runs > 0 {
			withRuns++
			runs += o.runs
		}
		if o.events > 0 {
			withEvents++
			events += o.events
		}
		if o.chips > 0 {
			chips += o.chips
			chipSec += o.lat.Seconds()
		}
	}
	setPerOp := func(name string, count int64) {
		if count > 0 && n > 0 {
			m[name] = float64(count) / n
		}
	}
	setPerOp("exec.chunks", int64(marks))
	setPerOp("core.lane_steps", laneTotal)
	setPerOp("store.gets_per_op", int64(len(svc.gets)))
	setPerOp("store.puts_per_op", int64(len(svc.puts)))
	if marks > 0 {
		m["exec.lanes_per_chunk"] = float64(items) / float64(marks)
	}
	setMedian(m, "exec.first_chunk_ms", first)
	setMedian(m, "exec.chunk_gap_ms_p50", gaps)
	setMedian(m, "exec.tail_ms", tails)
	if laneTotal > 0 {
		m["core.ns_per_lane_step"] = t.cpu / float64(laneTotal)
	}
	if withRuns > 0 {
		m["noise.resonance_runs"] = float64(runs) / float64(withRuns)
	}
	if withEvents > 0 {
		m["events.per_job"] = float64(events) / float64(withEvents)
	}
	if hits > 0 {
		m["service.hit_ratio"] = float64(hitOK) / float64(hits)
		setQuantile(m, "service.hit_p50_ms", hitLat, 0.5)
		setQuantile(m, "service.hit_p99_ms", hitLat, 0.99)
	}

	var submits []float64
	for _, s := range spans {
		if s.Name == "client.Submit" {
			submits = append(submits, float64(s.End-s.Start)/1e6)
		}
	}
	setMedian(m, "service.submit_ms_p50", submits)
	svc.mu.Lock()
	defer svc.mu.Unlock()
	setMedian(m, "service.queue_wait_ms_p50", svc.queueWait)
	setMedian(m, "service.runner_ms_p50.epi_profile", svc.runnerBy[service.StudyEPIProfile])
	setMedian(m, "service.runner_ms_p50.population", svc.runnerBy[service.StudyPopulation])
	var overhead []float64
	var popSec float64
	for hash, lat := range svc.coldLat {
		if r, ok := svc.runner[hash]; ok {
			overhead = append(overhead, ms(lat-r))
		}
	}
	for _, v := range svc.runnerBy[service.StudyPopulation] {
		popSec += v / 1e3
	}
	setMedian(m, "service.overhead_ms_p50", overhead)
	setMedian(m, "store.get_us_p50", svc.gets)
	setMedian(m, "store.put_us_p50", svc.puts)
	// Fleet throughput is chips over the time spent measuring them: the
	// runner's time when a server ran the studies, the op's otherwise.
	if popSec > 0 {
		chipSec = popSec
	}
	if chips > 0 {
		m["population.chips_per_s"] = float64(chips) / chipSec
	}
	return t
}

func setMedian(m map[string]float64, name string, xs []float64) { setQuantile(m, name, xs, 0.5) }

func setQuantile(m map[string]float64, name string, xs []float64, q float64) {
	if len(xs) > 0 {
		m[name] = quantile(xs, q)
	}
}

// model is the additive per-lane-step cost model: for the lane-steps
// the workload ran at each lockstep width, the replayed session run at
// that width (the pdn step plus core overhead), plus the replayed
// stressmark Power cost for the evaluations its loads made.
func model(t traffic, eng *engine, powerNs float64) (predicted, residualPct float64, err error) {
	var cost, total float64
	for w, n := range t.laneSteps {
		_, run, err := eng.at(w)
		if err != nil {
			return 0, 0, err
		}
		cost += float64(n) * run
		total += float64(n)
	}
	if total == 0 {
		return math.NaN(), math.NaN(), nil
	}
	cost += float64(t.powerEvals) * powerNs
	predicted = cost / total
	measured := t.cpu / total
	return predicted, (measured - predicted) / measured * 100, nil
}
