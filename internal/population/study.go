package population

import (
	"context"
	"sort"

	"voltnoise/internal/core"
	"voltnoise/internal/exec"
	"voltnoise/internal/progress"
)

// ChipSummary is the per-chip reduction the runner keeps: a few
// numbers per chip instead of traces, indexed by chip id so the
// post-parallel fold runs in a fixed order.
type ChipSummary struct {
	// Chip is the chip id (the derivation seed index).
	Chip int `json:"chip"`
	// Bin is the electrical-severity bin the chip rode.
	Bin int `json:"bin"`
	// WorstDroopPct is the worst per-core skitter reading in %p2p.
	WorstDroopPct float64 `json:"worst_droop_pct"`
	// WorstCore shows which core read it.
	WorstCore int `json:"worst_core"`
	// CoreDroopPct is every core's own reading, feeding the per-class
	// breakdown.
	CoreDroopPct [core.NumCores]float64 `json:"core_droop_pct"`
	// VminV is the deepest supply excursion on any core, in volts.
	VminV float64 `json:"vmin_v"`
	// GuardbandPct is the margin this chip needs: its worst droop
	// relative to nominal plus the study's safety margin.
	GuardbandPct float64 `json:"guardband_pct"`
}

// Result is a population study's summary: distributions over the
// fleet, never per-chip traces.
type Result struct {
	// Echo of the study parameters the distributions answer for.
	Chips         int                   `json:"chips"`
	AgeYears      float64               `json:"age_years"`
	Mix           [core.NumCores]string `json:"mix"`
	TechNode      int                   `json:"tech_node"`
	DecapScale    float64               `json:"decap_scale"`
	ExitHz        float64               `json:"exit_hz"`
	Seed          uint64                `json:"seed"`
	RLCBins       int                   `json:"rlc_bins"`
	SafetyPercent float64               `json:"safety_percent"`

	// Droop, Vmin and Guardband summarize the per-chip worst droop
	// (%p2p), deepest supply excursion (V), and required guard-band
	// (%) across the fleet.
	Droop     Distribution `json:"droop_pct"`
	Vmin      Distribution `json:"vmin_v"`
	Guardband Distribution `json:"guardband_pct"`
	// GuardbandHist is the guard-band histogram behind the
	// distribution — the "how many chips need how much margin" table.
	GuardbandHist []HistBin `json:"guardband_hist"`
	// PerClass breaks the per-core droop readings down by core class
	// (each chip contributes one reading per core).
	PerClass map[string]Distribution `json:"per_class_droop_pct"`
	// WorstChips lists the fleet's worst chips, deepest droop first.
	WorstChips []ChipSummary `json:"worst_chips"`

	// BatchedChunks counts the lockstep multi-chip batches the run
	// used. It depends on the workers/batch scheduling knobs, so it
	// is deliberately excluded from the canonical JSON — summaries
	// stay byte-identical at any schedule.
	BatchedChunks int `json:"-"`
}

// worstChipsKept bounds the per-chip detail a result retains.
const worstChipsKept = 5

// Sketch geometries. Fixed so that results never depend on the data
// order; chosen to resolve the interesting range (droops and
// guard-bands in percent, Vmin around nominal) at ~0.5% granularity.
const sketchBins = 60

// Run executes the population study: derive every chip of the fleet,
// group chips into shared-circuit electrical bins, pack each bin's
// chips into lockstep batch lanes, measure every chip's aligned
// C-state-exit window, and fold the per-chip summaries into
// fixed-geometry distribution sketches.
//
// Results are bit-identical for any Workers and Batch setting: the
// per-chip measurement is bit-identical to a lane-per-run session by
// the batch engine's contract, summaries land in a chip-indexed
// table, and the fold walks that table in chip order.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tech := techTable[cfg.TechNode]

	// Derive the fleet and group it by electrical bin, chip order
	// within each bin.
	chips := make([]chipState, cfg.Chips)
	binIDs := make([][]int, cfg.RLCBins)
	for id := range chips {
		chips[id] = deriveChip(cfg, tech, uint64(id))
		b := chips[id].bin
		binIDs[b] = append(binIDs[b], id)
	}

	// One platform (one stamped + factored circuit, one session pool)
	// per non-empty bin.
	platforms := make([]*core.Platform, cfg.RLCBins)
	for b, ids := range binIDs {
		if len(ids) == 0 {
			continue
		}
		p, err := core.New(binConfig(cfg.Base, tech, cfg.DecapScale, b, cfg.RLCBins))
		if err != nil {
			return nil, err
		}
		platforms[b] = p
	}

	// Cut each bin's chip list into lockstep batches. The batch list
	// is a pure function of (chips, bins, width) — scheduling knobs
	// only decide which worker runs which batch when, and the
	// calibrated auto width moves only wall-clock time (lanes are
	// bit-identical at every width). All bins share one circuit
	// topology, so any bin's pool calibrates for the whole study.
	var auto func() int
	for _, p := range platforms {
		if p != nil {
			auto = p.Sessions().AutoBatchWidth
			break
		}
	}
	width := exec.BatchWidthAuto(cfg.Batch, cfg.Chips, auto)
	type chipBatch struct {
		bin int
		ids []int
	}
	var batches []chipBatch
	for b, ids := range binIDs {
		for _, r := range exec.Chunks(len(ids), width) {
			batches = append(batches, chipBatch{bin: b, ids: ids[r[0]:r[1]]})
		}
	}

	duration := 2 / cfg.ExitHz
	spec := func(id int) core.RunSpec {
		return core.RunSpec{
			Workloads: chips[id].sleep,
			Start:     0,
			Warmup:    cfg.WarmupS,
			Duration:  duration,
		}
	}
	vnom := cfg.Base.PDN.Vnom
	summaries := make([]ChipSummary, cfg.Chips)
	batched := 0
	done := 0
	err := exec.MapStolen(ctx, len(batches), 1, cfg.Workers,
		func(ctx context.Context, bi, _ int) ([]*core.Measurement, error) {
			bat := batches[bi]
			pool := platforms[bat.bin].Sessions()
			bs, err := pool.GetBatch(1.0, len(bat.ids))
			if err != nil {
				return nil, err
			}
			defer pool.PutBatch(bs)
			specs := make([]core.RunSpec, len(bat.ids))
			for l, id := range bat.ids {
				if err := bs.SetLaneGains(l, chips[id].gains); err != nil {
					return nil, err
				}
				specs[l] = spec(id)
			}
			return bs.RunBatchContext(ctx, specs)
		},
		func(ci, bi, _ int, ms []*core.Measurement) error {
			bat := batches[bi]
			if len(bat.ids) > 1 {
				batched++
			}
			chunk := make([]ChipSummary, len(bat.ids))
			for l, id := range bat.ids {
				m := ms[l]
				droop, wc := m.WorstP2P()
				vmin := m.MinVoltage()
				chunk[l] = ChipSummary{
					Chip:          id,
					Bin:           bat.bin,
					WorstDroopPct: droop,
					WorstCore:     wc,
					CoreDroopPct:  m.P2P,
					VminV:         vmin,
					GuardbandPct:  (vnom-vmin)/vnom*100 + cfg.SafetyPercent,
				}
				summaries[id] = chunk[l]
			}
			done++
			cfg.Progress.Emit(progress.Event{
				Chunk: ci, Done: done, Total: len(batches), Payload: chunk,
			})
			return nil
		})
	if err != nil {
		return nil, err
	}
	res := Fold(cfg, summaries)
	res.BatchedChunks = batched
	return res, nil
}

// Fold reduces the per-chip summaries (indexed by chip id) into the
// study's distribution Result, walking the table in chip order:
// integer sketch counts are order-free, the running sums behind the
// means are not, so the order is pinned here rather than left to the
// scheduler. It is exported so a consumer that collected every
// ChipSummary from the Progress stream can reproduce the final Result
// bit for bit (BatchedChunks excepted — that counts scheduling, and is
// excluded from the canonical JSON anyway).
func Fold(cfg Config, summaries []ChipSummary) *Result {
	vnom := cfg.Base.PDN.Vnom
	droopSk := NewSketch(0, 30, sketchBins)
	vminSk := NewSketch(0.7*vnom, vnom, sketchBins)
	gbSk := NewSketch(0, 30, sketchBins)
	classSk := map[string]*Sketch{}
	for _, name := range cfg.Mix {
		if classSk[name] == nil {
			classSk[name] = NewSketch(0, 30, sketchBins)
		}
	}
	for id := range summaries {
		s := &summaries[id]
		droopSk.Add(s.WorstDroopPct)
		vminSk.Add(s.VminV)
		gbSk.Add(s.GuardbandPct)
		// Every chip contributes each core's own reading to that
		// core slot's class.
		for i, name := range cfg.Mix {
			classSk[name].Add(s.CoreDroopPct[i])
		}
	}
	res := &Result{
		Chips:         cfg.Chips,
		AgeYears:      cfg.AgeYears,
		Mix:           cfg.Mix,
		TechNode:      cfg.TechNode,
		DecapScale:    cfg.DecapScale,
		ExitHz:        cfg.ExitHz,
		Seed:          cfg.Seed,
		RLCBins:       cfg.RLCBins,
		SafetyPercent: cfg.SafetyPercent,
		Droop:         droopSk.Distribution(),
		Vmin:          vminSk.Distribution(),
		Guardband:     gbSk.Distribution(),
		GuardbandHist: gbSk.Histogram(),
	}
	res.PerClass = make(map[string]Distribution, len(classSk))
	for name, sk := range classSk {
		res.PerClass[name] = sk.Distribution()
	}

	// The fleet's worst chips, deepest droop first (chip id breaks
	// ties, so the list is fully determined).
	worst := make([]ChipSummary, len(summaries))
	copy(worst, summaries)
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].WorstDroopPct != worst[j].WorstDroopPct {
			return worst[i].WorstDroopPct > worst[j].WorstDroopPct
		}
		return worst[i].Chip < worst[j].Chip
	})
	if len(worst) > worstChipsKept {
		worst = worst[:worstChipsKept]
	}
	res.WorstChips = worst
	return res
}
