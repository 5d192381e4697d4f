package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"voltnoise/internal/core"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
)

// pinnedMeasurementDigest is the sha256 digest over every field of the
// measurements of digestRuns, in run order. Lanes are bit-identical to
// lane-per-run measurements, so one digest serves every width. Lane
// comparisons catch a lane that drifts from its neighbours; this
// catches a numeric change that moves every width at once.
const pinnedMeasurementDigest = "461c878a0d2011aba953484d0590ecb3333dcef7c293ecb07271297767091222"

// digestRun is one measurement of the pinned sequence: a stressmark
// spec at a supply bias, with optional sensor-gain scaling and
// misalignment offsets.
type digestRun struct {
	freq     float64
	sync     bool
	offsets  *[core.NumCores]uint64
	bias     float64
	gain     float64 // multiplies every core gain; 0 keeps the config's
	duration float64
	record   bool
}

var digestRuns = []digestRun{
	{freq: 2e6, sync: true, bias: 1.0, duration: 20e-6, record: true},
	{freq: 1.1e6, bias: 0.95, duration: 16e-6},
	{freq: 0.7e6, sync: true, offsets: &[core.NumCores]uint64{0, 3, 0, 5, 1, 0}, bias: 1.0, gain: 1.07, duration: 20e-6},
	{freq: 3.3e6, bias: 1.04, duration: 12e-6, record: true},
	{freq: 2e6, bias: 1.0, duration: 20e-6},
	{freq: 5e5, sync: true, bias: 0.9, gain: 0.93, duration: 18e-6},
	{freq: 1.6e6, sync: true, offsets: &[core.NumCores]uint64{2, 0, 0, 0, 0, 7}, bias: 1.0, duration: 20e-6},
	{freq: 2.4e6, bias: 0.97, duration: 14e-6},
}

// digestSpecs lowers digestRuns to run specs on stressmark workloads
// found by the quick sequence search. Every spec shares Start and
// Warmup, so the runs fit one lockstep batch.
func digestSpecs(t *testing.T, cfg core.Config) []core.RunSpec {
	t.Helper()
	scfg := stressmark.QuickSearchConfig()
	res, err := stressmark.FindMaxPowerSequence(scfg)
	if err != nil {
		t.Fatal(err)
	}
	low := stressmark.MinPowerSequence(scfg)
	specs := make([]core.RunSpec, len(digestRuns))
	for i, r := range digestRuns {
		s := stressmark.Spec{HighSeq: res.Best, LowSeq: low, StimulusFreq: r.freq, Duty: 0.5}
		var wl [core.NumCores]core.Workload
		if r.sync {
			cond := tod.DefaultSync()
			s.Sync, s.Events = &cond, 20
			wl, err = stressmark.SyncWorkloads(s, cfg.Core, scfg.Table, r.offsets)
		} else {
			wl, err = stressmark.UnsyncWorkloads(s, cfg.Core, scfg.Table)
		}
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = core.RunSpec{Workloads: wl, Start: -2e-6, Warmup: 5e-6, Duration: r.duration, Record: r.record}
	}
	return specs
}

// gains returns the run's per-core sensor gains.
func (r digestRun) gains(cfg core.Config) [core.NumCores]float64 {
	g := cfg.CoreGain
	if r.gain != 0 {
		for i := range g {
			g[i] *= r.gain
		}
	}
	return g
}

// hashMeasurement appends the bits of every field of m to h.
func hashMeasurement(h hash.Hash, m *core.Measurement) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	f := func(v float64) { put(math.Float64bits(v)) }
	for i := 0; i < core.NumCores; i++ {
		f(m.P2P[i])
		put(uint64(m.PosMin[i]))
		put(uint64(m.PosMax[i]))
		f(m.VMin[i])
		f(m.VMax[i])
		if tr := m.Traces[i]; tr != nil {
			f(tr.Start)
			for _, v := range tr.Samples {
				f(v)
			}
		}
	}
	put(uint64(m.ChipPowerMilliwatts))
	put(uint64(m.NominalPos))
	f(m.Start)
	f(m.Duration)
}

// TestSessionDigestPinned runs the pinned sequence one run at a time
// on a width-1 batch session, then all eight runs as the lanes of one
// width-8 batch, and checks each against the digest.
func TestSessionDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	cfg := core.DefaultConfig()
	specs := digestSpecs(t, cfg)

	one, err := core.NewBatchSession(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, r := range digestRuns {
		if err := one.SetVoltageBias(r.bias); err != nil {
			t.Fatal(err)
		}
		if err := one.SetLaneGains(0, r.gains(cfg)); err != nil {
			t.Fatal(err)
		}
		ms, err := one.RunBatchContext(context.Background(), specs[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		hashMeasurement(h, ms[0])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedMeasurementDigest {
		t.Errorf("width 1: digest %s, want %s", got, pinnedMeasurementDigest)
	}

	eight, err := core.NewBatchSession(cfg, len(digestRuns))
	if err != nil {
		t.Fatal(err)
	}
	for l, r := range digestRuns {
		if err := eight.SetLaneBias(l, r.bias); err != nil {
			t.Fatal(err)
		}
		if err := eight.SetLaneGains(l, r.gains(cfg)); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := eight.RunBatchContext(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	for _, m := range ms {
		hashMeasurement(h, m)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedMeasurementDigest {
		t.Errorf("width 8: digest %s, want %s", got, pinnedMeasurementDigest)
	}
}
