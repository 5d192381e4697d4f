// Package service exposes the repository's characterization studies
// as a long-running network daemon: clients submit study requests
// (frequency sweeps, Vmin walks, EPI profiles, guard-band
// evaluations) over a versioned HTTP/JSON API and the service runs
// them on a bounded worker pool, deduplicating identical work through
// a content-addressed result cache.
//
// The cornerstone is determinism: every study in this repository is
// bit-identical for any worker count (see internal/exec), so two
// requests with the same canonical configuration must produce the
// same bytes — whether computed fresh, served from the cache, or
// collapsed into one in-flight execution by the singleflight layer.
// The canonical configuration hash (Request.Hash) is therefore a safe
// content-addressed key.
//
// Cancellation is first-class: every job carries a context that
// DELETE /v1/jobs/{id} cancels. The runner threads it through the
// study harness, the pooled measurement sessions and down to the
// transient integration loop, so canceling a RUNNING job interrupts
// the sweep mid-measurement (within a few thousand integration steps)
// instead of letting the study run to completion. Canceled jobs
// finish in StateCanceled, never populate the cache, and are counted
// by the jobs_canceled metric; the sessions they were using return to
// the pool for the next job.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/population"
	"voltnoise/internal/vmin"
)

// Study identifies one characterization study kind the service can
// run.
type Study string

const (
	// StudyFreqSweep is a stimulus-frequency noise sweep of the maximum
	// dI/dt stressmark (the paper's Figures 7a and 9).
	StudyFreqSweep Study = "freq_sweep"
	// StudyVminWalk is a Vmin experiment: lower the supply in 0.5%
	// steps until first failure and report the margin (Figure 12).
	StudyVminWalk Study = "vmin_walk"
	// StudyEPIProfile ranks the full ISA by energy per instruction
	// (Table I).
	StudyEPIProfile Study = "epi_profile"
	// StudyGuardband evaluates utilization-based dynamic guard-banding
	// over a utilization trace (Section VII-B).
	StudyGuardband Study = "guardband"
	// StudyPopulation measures worst-case droop, Vmin and guard-band
	// distributions across a heterogeneous, aged chip fleet (the
	// paper's cross-processor validation scaled to a population).
	StudyPopulation Study = "population"
)

// Studies lists every supported study kind, in a fixed order.
func Studies() []Study {
	return []Study{StudyFreqSweep, StudyVminWalk, StudyEPIProfile, StudyGuardband, StudyPopulation}
}

// SchemaVersion is folded into the canonical hash so that future
// incompatible request-schema revisions never collide with v1 cache
// entries.
const SchemaVersion = 1

// Request is one characterization request. Exactly one params block —
// the one matching Study — must be set.
//
// Workers is a scheduling knob only: it follows the repository-wide
// convention (0 = one worker per CPU, 1 = serial, negative treated as
// 0) and never changes the result bytes, so it is excluded from the
// canonical hash.
type Request struct {
	// Study selects the study kind.
	Study Study `json:"study"`
	// Quick substitutes the reduced stressmark search (same shape,
	// milliseconds instead of minutes). It changes the discovered
	// sequences and therefore the results, so it is part of the hash.
	Quick bool `json:"quick,omitempty"`
	// Workers caps the study's parallel measurement workers
	// (0 = one per CPU, 1 = serial). Scheduling only; not hashed.
	Workers int `json:"workers,omitempty"`
	// Batch is the lockstep batch lane width for studies that pack
	// measurement runs into one factored circuit (0 = auto:
	// pdn.AutoBatchLanes, 16 lanes on the AVX2 solve bodies and 8 on
	// the pure-Go ones; 1 = lane-per-run). Like Workers it is
	// scheduling only — every width produces bit-identical bytes — so
	// it is excluded from the canonical hash.
	Batch int `json:"batch,omitempty"`

	FreqSweep  *FreqSweepParams  `json:"freq_sweep,omitempty"`
	VminWalk   *VminWalkParams   `json:"vmin_walk,omitempty"`
	EPIProfile *EPIProfileParams `json:"epi_profile,omitempty"`
	Guardband  *GuardbandParams  `json:"guardband,omitempty"`
	Population *PopulationParams `json:"population,omitempty"`
}

// FreqSweepParams parameterizes a stimulus-frequency sweep:
// logarithmically spaced points between LoHz and HiHz.
type FreqSweepParams struct {
	LoHz   float64 `json:"lo_hz"`
	HiHz   float64 `json:"hi_hz"`
	Points int     `json:"points"`
	// Sync runs TOD-synchronized bursts (Figure 9) instead of
	// free-running copies (Figure 7a).
	Sync bool `json:"sync,omitempty"`
	// Events is the consecutive delta-I events per synchronized burst
	// (default 1000, the paper's setting). Ignored unless Sync.
	Events int `json:"events,omitempty"`
}

func (p *FreqSweepParams) normalize() error {
	if p.LoHz <= 0 || p.HiHz <= 0 {
		return fmt.Errorf("freq_sweep: non-positive frequency bound")
	}
	if p.HiHz < p.LoHz {
		return fmt.Errorf("freq_sweep: hi_hz %g below lo_hz %g", p.HiHz, p.LoHz)
	}
	if p.Points < 1 || p.Points > 4096 {
		return fmt.Errorf("freq_sweep: points %d outside [1, 4096]", p.Points)
	}
	if !p.Sync {
		p.Events = 0
	} else if p.Events == 0 {
		p.Events = 1000
	} else if p.Events < 0 {
		return fmt.Errorf("freq_sweep: negative events %d", p.Events)
	}
	return nil
}

// VminWalkParams parameterizes a Vmin walk of the maximum dI/dt
// stressmark at one stimulus frequency.
type VminWalkParams struct {
	FreqHz float64 `json:"freq_hz"`
	// Events is the consecutive delta-I events per synchronized burst;
	// 0 selects the unsynchronized (free-running) variant.
	Events int `json:"events,omitempty"`
	// FailVoltage is the critical-path failure threshold in volts
	// (default: the calibrated 0.875 V).
	FailVoltage float64 `json:"fail_voltage,omitempty"`
	// MinBias bounds the walk from below (default 0.80).
	MinBias float64 `json:"min_bias,omitempty"`
}

func (p *VminWalkParams) normalize() error {
	if p.FreqHz <= 0 {
		return fmt.Errorf("vmin_walk: non-positive stimulus frequency %g", p.FreqHz)
	}
	if p.Events < 0 {
		return fmt.Errorf("vmin_walk: negative events %d", p.Events)
	}
	if p.FailVoltage == 0 {
		p.FailVoltage = vmin.DefaultFailVoltage
	} else if p.FailVoltage < 0 {
		return fmt.Errorf("vmin_walk: negative fail voltage %g", p.FailVoltage)
	}
	if p.MinBias == 0 {
		p.MinBias = vmin.DefaultConfig().MinBias
	}
	if p.MinBias <= 0 || p.MinBias >= 1 {
		return fmt.Errorf("vmin_walk: min_bias %g outside (0, 1)", p.MinBias)
	}
	return nil
}

// EPIProfileParams parameterizes EPI profiling.
type EPIProfileParams struct {
	// TopN is how many entries to return from each end of the rank
	// (default 5; capped at the table size).
	TopN int `json:"top_n,omitempty"`
	// MeasureCycles and WarmupCycles bound each per-instruction run
	// (defaults: the standard 4096/512). MeasureCycles must lie in
	// [100, 2^20] and WarmupCycles in [0, 2^20]: the warm-up loop does
	// not watch for cancellation, so its length must be bounded here.
	MeasureCycles int `json:"measure_cycles,omitempty"`
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
}

func (p *EPIProfileParams) normalize() error {
	def := epi.DefaultConfig()
	if p.TopN == 0 {
		p.TopN = 5
	}
	if p.TopN < 1 {
		return fmt.Errorf("epi_profile: top_n %d", p.TopN)
	}
	if p.MeasureCycles == 0 {
		p.MeasureCycles = def.MeasureCycles
	}
	if p.MeasureCycles < 100 || p.MeasureCycles > 1<<20 {
		return fmt.Errorf("epi_profile: measure_cycles %d outside [100, 2^20]", p.MeasureCycles)
	}
	if p.WarmupCycles == 0 {
		p.WarmupCycles = def.WarmupCycles
	}
	if p.WarmupCycles < 0 || p.WarmupCycles > 1<<20 {
		return fmt.Errorf("epi_profile: warmup_cycles %d outside [0, 2^20]", p.WarmupCycles)
	}
	return nil
}

// UtilizationPhase is one segment of a guard-band utilization trace.
type UtilizationPhase struct {
	ActiveCores int     `json:"active_cores"`
	DurationS   float64 `json:"duration_s"`
}

// GuardbandParams parameterizes a guard-band evaluation: build a
// margin table and replay a utilization trace against it.
type GuardbandParams struct {
	// Droops, when present, is the measured worst-case droop percentage
	// per active-core count (length NumCores+1); the margin table is
	// built directly from it. When absent, the service derives the
	// droops from a (non-exhaustive) mapping study at FreqHz/Events.
	Droops []float64 `json:"droops,omitempty"`
	// SafetyPercent is added on top of the worst droop (default 1.0).
	SafetyPercent float64 `json:"safety_percent,omitempty"`
	// Trace is the utilization trace to replay.
	Trace []UtilizationPhase `json:"trace"`
	// FreqHz and Events parameterize the mapping study when Droops is
	// absent (defaults 2e6 / 50, the paper's setting).
	FreqHz float64 `json:"freq_hz,omitempty"`
	Events int     `json:"events,omitempty"`
}

func (p *GuardbandParams) normalize() error {
	if len(p.Droops) > 0 {
		if len(p.Droops) != core.NumCores+1 {
			return fmt.Errorf("guardband: droops must have %d entries (0..%d active cores), got %d",
				core.NumCores+1, core.NumCores, len(p.Droops))
		}
		for i, d := range p.Droops {
			if d < 0 {
				return fmt.Errorf("guardband: negative droop at %d cores", i)
			}
		}
		p.FreqHz, p.Events = 0, 0 // unused; keep the hash canonical
	} else {
		if p.FreqHz == 0 {
			p.FreqHz = 2e6
		}
		if p.FreqHz <= 0 {
			return fmt.Errorf("guardband: non-positive stimulus frequency %g", p.FreqHz)
		}
		if p.Events == 0 {
			p.Events = 50
		}
		if p.Events < 1 {
			return fmt.Errorf("guardband: events %d", p.Events)
		}
	}
	if p.SafetyPercent == 0 {
		p.SafetyPercent = 1.0
	}
	if p.SafetyPercent < 0 {
		return fmt.Errorf("guardband: negative safety %g", p.SafetyPercent)
	}
	if len(p.Trace) == 0 {
		return fmt.Errorf("guardband: empty utilization trace")
	}
	for i, ph := range p.Trace {
		if ph.ActiveCores < 0 || ph.ActiveCores > core.NumCores {
			return fmt.Errorf("guardband: trace[%d]: %d active cores outside [0, %d]", i, ph.ActiveCores, core.NumCores)
		}
		if ph.DurationS <= 0 {
			return fmt.Errorf("guardband: trace[%d]: non-positive duration %g", i, ph.DurationS)
		}
	}
	return nil
}

// PopulationParams parameterizes a fleet-scale population study:
// distributions of worst-case droop, Vmin and required guard-band
// across Chips deterministic chip variants of the given age, core mix
// and tech node.
type PopulationParams struct {
	// Chips is the population size (required, [1, population.MaxChips]).
	Chips int `json:"chips"`
	// AgeYears ages the fleet (default 0: fresh silicon).
	AgeYears float64 `json:"age_years,omitempty"`
	// Mix assigns a core class ("o3", "io") to each of the six core
	// slots; empty selects all-"o3". Normalization always spells out
	// all six entries, so an explicit all-"o3" mix hashes identically
	// to an omitted one.
	Mix []string `json:"mix,omitempty"`
	// TechNode is the technology node in nm (default 45).
	TechNode int `json:"tech_node,omitempty"`
	// DecapScale multiplies the node's on-die decap budget (default 1).
	DecapScale float64 `json:"decap_scale,omitempty"`
	// ExitHz is the aligned C-state exit rate (default 250e3).
	ExitHz float64 `json:"exit_hz,omitempty"`
	// WarmupS is the pre-window settling time (default: engine default).
	WarmupS float64 `json:"warmup_s,omitempty"`
	// Seed decorrelates fleets (default 0).
	Seed uint64 `json:"seed,omitempty"`
	// RLCBins quantizes electrical process variation (default 8).
	RLCBins int `json:"rlc_bins,omitempty"`
	// SafetyPercent is the guard-band margin on top of the observed
	// droop (default 1.0).
	SafetyPercent float64 `json:"safety_percent,omitempty"`
}

func (p *PopulationParams) normalize() error {
	if len(p.Mix) == 0 {
		p.Mix = make([]string, core.NumCores)
		for i := range p.Mix {
			p.Mix[i] = "o3"
		}
	}
	if len(p.Mix) != core.NumCores {
		return fmt.Errorf("population: mix must have %d entries, got %d", core.NumCores, len(p.Mix))
	}
	if p.TechNode == 0 {
		p.TechNode = 45
	}
	if p.DecapScale == 0 {
		p.DecapScale = 1.0
	}
	if p.ExitHz == 0 {
		p.ExitHz = 250e3
	}
	if p.RLCBins == 0 {
		p.RLCBins = 8
	}
	if p.SafetyPercent == 0 {
		p.SafetyPercent = 1.0
	}
	// The population package owns the semantic checks (chip count,
	// classes, node table, rates); validate through it so the service
	// never accepts a config the runner would reject.
	if err := p.config(0, 0).Validate(); err != nil {
		return err
	}
	return nil
}

// config assembles the study configuration on the calibrated base
// platform with the request's scheduling knobs.
func (p *PopulationParams) config(workers, batch int) population.Config {
	cfg := population.Config{
		Base:          core.DefaultConfig(),
		Chips:         p.Chips,
		AgeYears:      p.AgeYears,
		TechNode:      p.TechNode,
		DecapScale:    p.DecapScale,
		ExitHz:        p.ExitHz,
		WarmupS:       p.WarmupS,
		Seed:          p.Seed,
		RLCBins:       p.RLCBins,
		SafetyPercent: p.SafetyPercent,
		Workers:       workers,
		Batch:         batch,
	}
	for i := 0; i < core.NumCores && i < len(p.Mix); i++ {
		cfg.Mix[i] = p.Mix[i]
	}
	return cfg
}

// Normalize validates the request and returns a canonical copy:
// defaults applied, unused fields zeroed, parameter blocks deep-
// copied. Two requests describing the same study configuration
// normalize to identical values (and so share one Hash) even when one
// spells a default out and the other omits it.
func (r *Request) Normalize() (*Request, error) {
	n := *r
	blocks := 0
	if n.FreqSweep != nil {
		blocks++
		cp := *n.FreqSweep
		n.FreqSweep = &cp
	}
	if n.VminWalk != nil {
		blocks++
		cp := *n.VminWalk
		n.VminWalk = &cp
	}
	if n.EPIProfile != nil {
		blocks++
		cp := *n.EPIProfile
		n.EPIProfile = &cp
	}
	if n.Guardband != nil {
		blocks++
		cp := *n.Guardband
		cp.Droops = append([]float64(nil), n.Guardband.Droops...)
		cp.Trace = append([]UtilizationPhase(nil), n.Guardband.Trace...)
		n.Guardband = &cp
	}
	if n.Population != nil {
		blocks++
		cp := *n.Population
		cp.Mix = append([]string(nil), n.Population.Mix...)
		n.Population = &cp
	}
	if blocks > 1 {
		return nil, fmt.Errorf("service: request has %d parameter blocks, want exactly one", blocks)
	}
	var err error
	switch n.Study {
	case StudyFreqSweep:
		if n.FreqSweep == nil {
			return nil, fmt.Errorf("service: study %q needs a freq_sweep block", n.Study)
		}
		err = n.FreqSweep.normalize()
	case StudyVminWalk:
		if n.VminWalk == nil {
			return nil, fmt.Errorf("service: study %q needs a vmin_walk block", n.Study)
		}
		err = n.VminWalk.normalize()
	case StudyEPIProfile:
		if n.EPIProfile == nil {
			return nil, fmt.Errorf("service: study %q needs an epi_profile block", n.Study)
		}
		err = n.EPIProfile.normalize()
	case StudyGuardband:
		if n.Guardband == nil {
			return nil, fmt.Errorf("service: study %q needs a guardband block", n.Study)
		}
		err = n.Guardband.normalize()
	case StudyPopulation:
		if n.Population == nil {
			return nil, fmt.Errorf("service: study %q needs a population block", n.Study)
		}
		err = n.Population.normalize()
	case "":
		return nil, fmt.Errorf("service: missing study kind (known: %v)", Studies())
	default:
		return nil, fmt.Errorf("service: unknown study %q (known: %v)", n.Study, Studies())
	}
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	if n.Workers < 0 {
		n.Workers = 0 // repository convention: non-positive selects one worker per CPU
	}
	if n.Batch < 0 {
		n.Batch = 0 // repository convention: non-positive selects the auto width
	}
	return &n, nil
}

// canonicalRequest is the hashed form: schema version plus every
// result-affecting field of a normalized request, serialized by
// encoding/json in fixed struct-field order. Workers and Batch are
// deliberately absent — they change scheduling, never bytes.
type canonicalRequest struct {
	V          int               `json:"v"`
	Study      Study             `json:"study"`
	Quick      bool              `json:"quick"`
	FreqSweep  *FreqSweepParams  `json:"freq_sweep,omitempty"`
	VminWalk   *VminWalkParams   `json:"vmin_walk,omitempty"`
	EPIProfile *EPIProfileParams `json:"epi_profile,omitempty"`
	Guardband  *GuardbandParams  `json:"guardband,omitempty"`
	Population *PopulationParams `json:"population,omitempty"`
}

// Hash returns the canonical configuration hash of the request: the
// hex SHA-256 of the normalized, stably serialized configuration.
// It is the content-addressed cache and singleflight key. Requests
// differing only in scheduling knobs (Workers, Batch) hash
// identically.
func (r *Request) Hash() (string, error) {
	n, err := r.Normalize()
	if err != nil {
		return "", err
	}
	c := canonicalRequest{
		V:          SchemaVersion,
		Study:      n.Study,
		Quick:      n.Quick,
		FreqSweep:  n.FreqSweep,
		VminWalk:   n.VminWalk,
		EPIProfile: n.EPIProfile,
		Guardband:  n.Guardband,
		Population: n.Population,
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("service: hashing request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
