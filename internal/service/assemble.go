package service

import (
	"encoding/json"
	"errors"
	"fmt"

	"voltnoise/internal/epi"
	"voltnoise/internal/population"
	"voltnoise/internal/vmin"
)

// ErrNoAssembly marks a study whose stream carries no assemblable
// partials (guardband: the result is one indivisible table). Callers
// fall back to GET /v1/jobs/{id}/result.
var ErrNoAssembly = errors.New("service: study does not stream assemblable partials")

// AssembleResult rebuilds the final result blob from a complete event
// stream. It normalizes the hello event's request, collects and checks
// the partials, and then calls the same library fold (epi.NewProfile,
// vmin.Fold, population.Fold) and wire converter the runner's final
// reduction calls — so the returned bytes are identical to the GET
// /v1/jobs/{id}/result body (and to the ResultHash fingerprint of the
// done event) at every (workers, batch) setting. A stream missing the
// hello or any partial, or carrying a malformed one, returns an error;
// studies without partials return ErrNoAssembly.
func AssembleResult(events []*Event) ([]byte, error) {
	var hello *Request
	for _, e := range events {
		if e != nil && e.Type == EventHello && e.Request != nil {
			hello = e.Request
			break
		}
	}
	if hello == nil {
		return nil, fmt.Errorf("service: assembling result: no hello event (replay the stream from seq 0)")
	}
	req, err := hello.Normalize()
	if err != nil {
		return nil, fmt.Errorf("service: assembling result: %w", err)
	}
	switch req.Study {
	case StudyFreqSweep:
		return assembleFreqSweep(req.FreqSweep, events)
	case StudyVminWalk:
		return assembleVminWalk(req.VminWalk, events)
	case StudyEPIProfile:
		return assembleEPIProfile(req.EPIProfile, events)
	case StudyPopulation:
		return assemblePopulation(req.Population, events)
	default:
		return nil, ErrNoAssembly
	}
}

// partials decodes every partial event's payload into fresh values of
// type P, paired with the carrying event.
func partials[P any](events []*Event) ([]P, []*Event, error) {
	var out []P
	var evs []*Event
	for _, e := range events {
		if e == nil || e.Type != EventPartial {
			continue
		}
		var p P
		if err := json.Unmarshal(e.Partial, &p); err != nil {
			return nil, nil, fmt.Errorf("service: decoding partial seq %d: %w", e.Seq, err)
		}
		out = append(out, p)
		evs = append(evs, e)
	}
	return out, evs, nil
}

// placed decodes the stream's partials of type P and puts each item
// that items reports at its index in a slice of n. A repeated index
// keeps the later copy; an index outside [0, n), or one that no
// partial fills, is an error.
func placed[P, T any](events []*Event, what string, n int, items func(part P, put func(index int, item T))) ([]T, error) {
	parts, _, err := partials[P](events)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	seen := make([]bool, n)
	got := 0
	put := func(i int, item T) {
		if i < 0 || i >= n {
			err = fmt.Errorf("service: assembling %s: index %d outside [0, %d)", what, i, n)
			return
		}
		if !seen[i] {
			seen[i] = true
			got++
		}
		out[i] = item
	}
	for _, part := range parts {
		items(part, put)
	}
	if err != nil {
		return nil, err
	}
	if got != n {
		return nil, fmt.Errorf("service: assembling %s: stream carries %d of %d", what, got, n)
	}
	return out, nil
}

func assembleFreqSweep(p *FreqSweepParams, events []*Event) ([]byte, error) {
	pts, err := placed(events, "freq_sweep points", p.Points, func(part FreqSweepPartial, put func(int, FreqSweepPoint)) {
		for _, ip := range part.Points {
			put(ip.Index, ip.Point)
		}
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(&FreqSweepResult{Sync: p.Sync, Events: p.Events, Points: pts})
}

func assembleVminWalk(p *VminWalkParams, events []*Event) ([]byte, error) {
	parts, evs, err := partials[VminStepPartial](events)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("service: assembling vmin_walk: no steps streamed")
	}
	steps := make([]vmin.StepEvent, len(parts))
	for i, s := range parts {
		if s.Step != i+1 {
			return nil, fmt.Errorf("service: assembling vmin_walk: partial %d carries step %d", i+1, s.Step)
		}
		steps[i] = vmin.StepEvent{Bias: s.Bias, MinV: s.MinV}
	}
	// The walk streams every step down to the first failure, which is
	// the last one streamed; a walk that never fails streams them all.
	res := vmin.Fold(p.config(0, 0), steps)
	if last := evs[len(evs)-1]; !res.Failed && last.ChunksDone != last.ChunksTotal {
		return nil, fmt.Errorf("service: assembling vmin_walk: stream carries %d of %d steps", last.ChunksDone, last.ChunksTotal)
	}
	return json.Marshal(vminWalkResult(p, res.Failed, res.MarginPercent))
}

func assembleEPIProfile(p *EPIProfileParams, events []*Event) ([]byte, error) {
	// The profile covers the whole table, and each partial entry names
	// the instruction at its table position.
	table := epi.DefaultConfig().Table.Instructions()
	parts, err := placed(events, "epi_profile entries", len(table), func(part EPIProfilePartial, put func(int, EPIPartialEntry)) {
		for k, e := range part.Entries {
			put(part.Start+k, e)
		}
	})
	if err != nil {
		return nil, err
	}
	entries := make([]epi.Entry, len(table))
	for i, e := range parts {
		if e.Mnemonic != table[i].Mnemonic {
			return nil, fmt.Errorf("service: assembling epi_profile: entry %d is %q, the table has %q there", i, e.Mnemonic, table[i].Mnemonic)
		}
		entries[i] = epi.Entry{Instr: table[i], PowerWatts: e.PowerWatts, IPC: e.IPC}
	}
	return json.Marshal(epiProfileResult(epi.NewProfile(entries), p.TopN))
}

func assemblePopulation(p *PopulationParams, events []*Event) ([]byte, error) {
	chips, err := placed(events, "population chips", p.Chips, func(part PopulationPartial, put func(int, population.ChipSummary)) {
		for _, cs := range part.Chips {
			put(cs.Chip, cs)
		}
	})
	if err != nil {
		return nil, err
	}
	// BatchedChunks is schedule-dependent but excluded from the
	// canonical JSON, so the bytes match.
	return json.Marshal(population.Fold(p.config(0, 0), chips))
}
