package service

import (
	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/noise"
)

// The unexported converters in this file are the one path from a
// study's library result to its wire form. The runner builds result
// blobs through them, and AssembleResult builds the same values from a
// stream's partials.

// FreqSweepPoint is one stimulus frequency of a sweep result.
type FreqSweepPoint struct {
	FreqHz float64   `json:"freq_hz"`
	P2P    []float64 `json:"p2p"`
	Worst  float64   `json:"worst"`
}

// freqSweepPoint is the wire form of one swept frequency.
func freqSweepPoint(pt noise.FreqPoint) FreqSweepPoint {
	return FreqSweepPoint{FreqHz: pt.Freq, P2P: append([]float64(nil), pt.P2P[:]...), Worst: pt.Worst()}
}

// FreqSweepResult is the freq_sweep study payload.
type FreqSweepResult struct {
	Sync   bool             `json:"sync"`
	Events int              `json:"events,omitempty"`
	Points []FreqSweepPoint `json:"points"`
}

// VminWalkResult is the vmin_walk study payload.
type VminWalkResult struct {
	FreqHz        float64 `json:"freq_hz"`
	Events        int     `json:"events"`
	Failed        bool    `json:"failed"`
	MarginPercent float64 `json:"margin_percent"`
}

// vminWalkResult is the wire form of a Vmin walk's outcome.
func vminWalkResult(p *VminWalkParams, failed bool, marginPercent float64) *VminWalkResult {
	return &VminWalkResult{FreqHz: p.FreqHz, Events: p.Events, Failed: failed, MarginPercent: marginPercent}
}

// EPIEntry is one ranked instruction of an EPI profile result.
type EPIEntry struct {
	Rank       int     `json:"rank"`
	Mnemonic   string  `json:"mnemonic"`
	Unit       string  `json:"unit"`
	PowerWatts float64 `json:"power_watts"`
	RelPower   float64 `json:"rel_power"`
	IPC        float64 `json:"ipc"`
}

// EPIProfileResult is the epi_profile study payload: the first and
// last TopN entries of the full rank.
type EPIProfileResult struct {
	Total  int        `json:"total"`
	Top    []EPIEntry `json:"top"`
	Bottom []EPIEntry `json:"bottom"`
}

// epiProfileResult is the wire form of a ranked profile: its first and
// last topN entries with their ranks.
func epiProfileResult(prof *epi.Profile, topN int) *EPIProfileResult {
	entry := func(rank int, e epi.Entry) EPIEntry {
		return EPIEntry{
			Rank:       rank,
			Mnemonic:   e.Instr.Mnemonic,
			Unit:       e.Instr.Unit.String(),
			PowerWatts: e.PowerWatts,
			RelPower:   e.RelPower,
			IPC:        e.IPC,
		}
	}
	res := &EPIProfileResult{Total: len(prof.Entries)}
	for i, e := range prof.Top(topN) {
		res.Top = append(res.Top, entry(i+1, e))
	}
	bottom := prof.Bottom(topN)
	for i, e := range bottom {
		res.Bottom = append(res.Bottom, entry(len(prof.Entries)-len(bottom)+i+1, e))
	}
	return res
}

// GuardbandResult is the guardband study payload.
type GuardbandResult struct {
	// MarginPercent[n] is the provisioned margin with n active cores.
	MarginPercent [core.NumCores + 1]float64 `json:"margin_percent"`
	// Bias[n] is the controller setpoint with n active cores.
	Bias [core.NumCores + 1]float64 `json:"bias"`
	// MeanBias and EnergySavedPercent summarize the trace replay
	// against a static worst-case guard-band.
	MeanBias           float64 `json:"mean_bias"`
	EnergySavedPercent float64 `json:"energy_saved_percent"`
	TotalTimeS         float64 `json:"total_time_s"`
}
