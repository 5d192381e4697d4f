package service

import (
	"encoding/json"
	"testing"

	"voltnoise/internal/epi"
	"voltnoise/internal/population"
)

// The streams below are built by hand: a hello plus the partials a
// run of each study would publish, with made-up measurements. Each
// well-formed stream assembles; each broken copy of one must not.

func helloEvent(req *Request) *Event { return &Event{Type: EventHello, Request: req} }

// partialEvent wraps a partial payload as the done-th of total reduced
// chunks.
func partialEvent(p any, done, total int) *Event {
	b, err := json.Marshal(p)
	if err != nil {
		panic(err)
	}
	return &Event{Type: EventPartial, Partial: b, ChunksDone: done, ChunksTotal: total}
}

func sweepStream(points ...int) []*Event {
	evs := []*Event{helloEvent(&Request{Study: StudyFreqSweep,
		FreqSweep: &FreqSweepParams{LoHz: 1e6, HiHz: 2e6, Points: 2}})}
	for k, i := range points {
		pt := FreqSweepPoint{FreqHz: 1e6 * float64(1+i), P2P: []float64{1, 2, 3, 4, 5, 6}, Worst: 6}
		evs = append(evs, partialEvent(FreqSweepPartial{Points: []IndexedFreqPoint{{Index: i, Point: pt}}}, k+1, len(points)))
	}
	return evs
}

// vminStream streams a three-step walk from 1.0 down to MinBias 0.99
// whose steps hold the given deepest supplies.
func vminStream(minV ...float64) []*Event {
	evs := []*Event{helloEvent(&Request{Study: StudyVminWalk,
		VminWalk: &VminWalkParams{FreqHz: 2e6, MinBias: 0.99}})}
	for k, v := range minV {
		evs = append(evs, partialEvent(VminStepPartial{Step: k + 1, Bias: 1 - 0.005*float64(k), MinV: v}, k+1, 3))
	}
	return evs
}

// epiStream streams the whole ISA table in chunks of 100 entries.
func epiStream() []*Event {
	table := epi.DefaultConfig().Table.Instructions()
	evs := []*Event{helloEvent(&Request{Study: StudyEPIProfile, EPIProfile: &EPIProfileParams{TopN: 3}})}
	total := (len(table) + 99) / 100
	for c := 0; c < total; c++ {
		part := EPIProfilePartial{Start: 100 * c, End: min(100*(c+1), len(table))}
		for i := part.Start; i < part.End; i++ {
			part.Entries = append(part.Entries, EPIPartialEntry{
				Mnemonic:   table[i].Mnemonic,
				Unit:       table[i].Unit.String(),
				PowerWatts: 30 + float64(i%17),
				IPC:        1,
			})
		}
		evs = append(evs, partialEvent(part, c+1, total))
	}
	return evs
}

func populationStream(chips ...int) []*Event {
	evs := []*Event{helloEvent(&Request{Study: StudyPopulation, Population: &PopulationParams{Chips: 2}})}
	for k, c := range chips {
		cs := population.ChipSummary{Chip: c, WorstDroopPct: 5, VminV: 0.9, GuardbandPct: 6}
		evs = append(evs, partialEvent(PopulationPartial{Chips: []population.ChipSummary{cs}}, k+1, len(chips)))
	}
	return evs
}

// TestAssembleResultStreams checks that each well-formed stream
// assembles, and that a stream with no hello, with a chunk missing,
// with an index out of range or with an instruction out of place
// returns an error and no blob.
func TestAssembleResultStreams(t *testing.T) {
	good := map[string][]*Event{
		"freq_sweep":        sweepStream(0, 1),
		"vmin_walk no fail": vminStream(0.95, 0.95, 0.95),
		"vmin_walk fails":   vminStream(0.95, 0.8),
		"epi_profile":       epiStream(),
		"population":        populationStream(0, 1),
	}
	for name, evs := range good {
		if blob, err := AssembleResult(evs); err != nil || len(blob) == 0 {
			t.Errorf("%s: well-formed stream: %d bytes, error %v", name, len(blob), err)
		}
	}

	misplaced := epiStream()
	var part EPIProfilePartial
	if err := json.Unmarshal(misplaced[1].Partial, &part); err != nil {
		t.Fatal(err)
	}
	part.Entries[0].Mnemonic, part.Entries[1].Mnemonic = part.Entries[1].Mnemonic, part.Entries[0].Mnemonic
	misplaced[1] = partialEvent(part, 1, len(misplaced)-1)
	epiMissing := epiStream()
	epiMissing = append(epiMissing[:3], epiMissing[4:]...)
	bad := map[string][]*Event{
		"no hello":                   sweepStream(0, 1)[1:],
		"freq_sweep missing point":   sweepStream(0),
		"freq_sweep point range":     sweepStream(0, 1, 2),
		"freq_sweep negative point":  sweepStream(-1, 0, 1),
		"vmin_walk missing last":     vminStream(0.95, 0.95),
		"vmin_walk missing middle":   append(vminStream(0.95), vminStream(0.95, 0.95, 0.95)[3]),
		"vmin_walk no steps":         vminStream(),
		"epi_profile missing chunk":  epiMissing,
		"epi_profile misplaced":      misplaced,
		"epi_profile empty":          epiStream()[:1],
		"population missing chip":    populationStream(1),
		"population chip range":      populationStream(0, 1, 2),
		"population negative chip":   populationStream(0, 1, -1),
		"freq_sweep hello no params": {helloEvent(&Request{Study: StudyFreqSweep})},
	}
	for name, evs := range bad {
		if blob, err := AssembleResult(evs); err == nil || blob != nil {
			t.Errorf("%s: got %d bytes and error %v, want an error and no blob", name, len(blob), err)
		}
	}
}
