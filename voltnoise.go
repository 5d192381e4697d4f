// Package voltnoise is a full reproduction, in simulation, of
// "Voltage Noise in Multi-core Processors: Empirical Characterization
// and Optimization Opportunities" (Bertran et al., MICRO-47, 2014).
//
// The paper characterizes supply-voltage noise on a real IBM zEC12
// mainframe processor using a systematic dI/dt stressmark generation
// methodology. This library rebuilds the entire experimental stack
// from scratch — a lumped-RLC power-distribution-network simulator, a
// zEC12-like six-core microarchitecture and power model, a synthetic
// 1301-instruction z-flavoured ISA, on-chip skitter noise sensors,
// TOD-based deterministic synchronization, Vmin experiments — and
// implements the paper's stressmark methodology and every
// characterization study on top of it.
//
// # Quick start
//
//	plat, _ := voltnoise.NewPlatform(voltnoise.DefaultPlatformConfig())
//	lab, _ := voltnoise.NewLab(plat)
//	sweep, _ := lab.FrequencySweep(context.Background(), voltnoise.LogSpace(1e3, 20e6, 40), true, 1000)
//	for _, pt := range sweep {
//		fmt.Printf("%12.0f Hz  worst %.1f %%p2p\n", pt.Freq, pt.Worst())
//	}
//
// Measurement-heavy studies take a context.Context and stop
// mid-sweep when it is canceled. Repeated runs draw reusable
// measurement sessions from Platform.Sessions, so a campaign pays the
// circuit construction and matrix factorization once.
//
// Every figure and table of the paper has a corresponding entry point;
// see EXPERIMENTS.md for the index and cmd/experiments for a runnable
// harness.
package voltnoise

import (
	"context"

	"voltnoise/internal/apps"
	"voltnoise/internal/core"
	"voltnoise/internal/epi"
	"voltnoise/internal/guardband"
	"voltnoise/internal/isa"
	"voltnoise/internal/mapping"
	"voltnoise/internal/noise"
	"voltnoise/internal/pdn"
	"voltnoise/internal/population"
	"voltnoise/internal/scheduler"
	"voltnoise/internal/signal"
	"voltnoise/internal/stressmark"
	"voltnoise/internal/tod"
	"voltnoise/internal/uarch"
	"voltnoise/internal/vmin"
)

// NumCores is the number of cores on the modelled zEC12-like chip.
const NumCores = core.NumCores

// Platform is the simulated system under test: six modelled cores on
// the calibrated PDN with per-core skitter sensors and service-element
// style voltage control and power monitoring.
type Platform = core.Platform

// PlatformConfig assembles the platform model.
type PlatformConfig = core.Config

// SessionPool recycles batch sessions for one platform configuration,
// keyed by lane width (GetBatch/PutBatch; width 1 for a lone
// measurement); safe for concurrent use. Platform.Sessions returns the
// platform's pool.
type SessionPool = core.SessionPool

// Measurement is what the platform's sensors report for one run.
type Measurement = core.Measurement

// RunSpec describes one measurement run on the platform.
type RunSpec = core.RunSpec

// Workload is what one core executes, reduced to instantaneous power.
type Workload = core.Workload

// DefaultPlatformConfig returns the calibrated platform model.
func DefaultPlatformConfig() PlatformConfig { return core.DefaultConfig() }

// NewPlatform builds a platform at nominal voltage.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return core.New(cfg) }

// Idle returns the idle workload for a core model.
func Idle(cfg CoreConfig) Workload { return core.Idle(cfg) }

// Steady returns a constant-power workload.
func Steady(name string, watts float64) Workload { return core.Steady(name, watts) }

// CoreConfig is the core microarchitecture and power model.
type CoreConfig = uarch.Config

// DefaultCoreConfig returns the calibrated zEC12-like core model.
func DefaultCoreConfig() CoreConfig { return uarch.DefaultConfig() }

// Program is an instruction loop body.
type Program = uarch.Program

// Instruction is one entry of the synthetic ISA.
type Instruction = isa.Instruction

// ISATable returns the synthetic zEC12-like instruction table
// (1301 instructions, including the paper's Table I pins).
func ISATable() *isa.Table { return isa.ZEC12Table() }

// Lab bundles a platform with the discovered stressmark sequences and
// exposes every characterization experiment of the paper.
//
// The measurement-heavy studies (FrequencySweep, MisalignmentSweep,
// MappingStudy, ConsecutiveEventStudy, MappingOpportunity,
// Sensitivity) fan their independent runs across a worker pool sized
// by Lab.Workers (zero: one worker per CPU, one: serial). Results are
// bit-identical for every worker count — the engine reduces in item
// order, so parallelism is safe by default.
type Lab = noise.Lab

// LabOption configures NewLab.
type LabOption = noise.Option

// WithSearch selects the stressmark sequence-search configuration
// (default: DefaultSearchConfig, the paper-sized search).
func WithSearch(scfg SearchConfig) LabOption { return noise.WithSearch(scfg) }

// WithWorkers caps the concurrent measurement workers of the parallel
// studies (zero: one worker per CPU, one: serial).
func WithWorkers(n int) LabOption { return noise.WithWorkers(n) }

// WithBatch sets the lockstep lane width of the batched studies (zero:
// the auto width, 16 lanes on the AVX2 solve bodies and 8 on the
// pure-Go ones; one: a width-1 session per run).
func WithBatch(n int) LabOption { return noise.WithBatch(n) }

// NewLab runs the maximum-power sequence search on the given platform
// and returns the experiment harness. Options select the search size
// and worker cap:
//
//	lab, err := voltnoise.NewLab(plat, voltnoise.WithSearch(voltnoise.QuickSearchConfig()))
func NewLab(p *Platform, opts ...LabOption) (*Lab, error) {
	return noise.New(p, opts...)
}

// SearchConfig parameterizes the maximum-power sequence search.
type SearchConfig = stressmark.SearchConfig

// DefaultSearchConfig mirrors the paper's search settings.
func DefaultSearchConfig() SearchConfig { return stressmark.DefaultSearchConfig() }

// QuickSearchConfig returns a reduced search (3-instruction sequences
// over 5 candidates) that finds a near-identical stressmark in
// milliseconds; useful for interactive work and tests. It is the same
// preset the voltnoised service selects for requests with
// "quick": true.
func QuickSearchConfig() SearchConfig { return stressmark.QuickSearchConfig() }

// SearchResult reports the search-pipeline funnel.
type SearchResult = stressmark.SearchResult

// FindMaxPowerSequence runs the paper's Section IV-B pipeline:
// candidate selection, combination generation, microarchitectural
// filtering, IPC filtering, power evaluation.
func FindMaxPowerSequence(cfg SearchConfig) (*SearchResult, error) {
	return stressmark.FindMaxPowerSequence(cfg)
}

// MinPowerSequence returns the minimum-power sequence (the EPI-rank
// bottom instruction).
func MinPowerSequence(cfg SearchConfig) *Program { return stressmark.MinPowerSequence(cfg) }

// StressmarkSpec is a fully parameterized dI/dt stressmark with the
// paper's four knobs: ΔI magnitude (sequence choice), stimulus
// frequency, consecutive-event count, and synchronization/alignment.
type StressmarkSpec = stressmark.Spec

// SyncCondition is a TOD spin-loop exit condition for deterministic
// multi-core alignment in 62.5 ns quanta.
type SyncCondition = tod.SyncCondition

// DefaultSync returns the paper's synchronization condition (every
// ~4 ms).
func DefaultSync() SyncCondition { return tod.DefaultSync() }

// TODTickSeconds is the TOD stepping quantum (62.5 ns), the alignment
// granularity of the misalignment study.
const TODTickSeconds = tod.TickSeconds

// EPIOption configures EPIProfile.
type EPIOption func(*EPIConfig)

// EPIWorkers caps the concurrent per-instruction measurement workers
// (zero: one worker per CPU, one: serial).
func EPIWorkers(n int) EPIOption { return func(c *EPIConfig) { c.Workers = n } }

// EPIBatch sets the chunk granularity of the stolen-chunk EPI schedule
// (zero: the default width, one: single instructions).
func EPIBatch(n int) EPIOption { return func(c *EPIConfig) { c.Batch = n } }

// EPIMeasureCycles sets the measured cycles per micro-benchmark.
func EPIMeasureCycles(n int) EPIOption { return func(c *EPIConfig) { c.MeasureCycles = n } }

// EPIWarmupCycles sets the warmup cycles per micro-benchmark.
func EPIWarmupCycles(n int) EPIOption { return func(c *EPIConfig) { c.WarmupCycles = n } }

// EPIProfile generates the energy-per-instruction profile of the full
// ISA (the paper's Table I) by running one micro-benchmark per
// instruction on the cycle-level executor. The per-instruction runs
// execute in parallel (one worker per CPU unless EPIWorkers says
// otherwise); the profile is bit-identical to a serial run. Canceling
// ctx interrupts the profile between instruction runs.
func EPIProfile(ctx context.Context, opts ...EPIOption) (*epi.Profile, error) {
	cfg := epi.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return epi.Generate(ctx, cfg)
}

// EPIConfig parameterizes EPI profiling.
type EPIConfig = epi.Config

// DefaultEPIConfig returns the standard EPI profiling setup.
func DefaultEPIConfig() EPIConfig { return epi.DefaultConfig() }

// VminConfig parameterizes a Vmin experiment.
type VminConfig = vmin.Config

// DefaultVminConfig returns the standard Vmin experiment setup.
func DefaultVminConfig() VminConfig { return vmin.DefaultConfig() }

// VminResult reports a Vmin experiment.
type VminResult = vmin.Result

// VminWindow is one measurement window per bias step.
type VminWindow = vmin.Window

// VminOption configures Vmin.
type VminOption func(*VminConfig)

// VminFailVoltage sets the critical-path failure threshold in volts.
func VminFailVoltage(v float64) VminOption { return func(c *VminConfig) { c.FailVoltage = v } }

// VminStartBias sets the first (highest) bias probed.
func VminStartBias(b float64) VminOption { return func(c *VminConfig) { c.StartBias = b } }

// VminMinBias bounds the walk from below.
func VminMinBias(b float64) VminOption { return func(c *VminConfig) { c.MinBias = b } }

// VminWindows sets the measurement windows checked at each step.
func VminWindows(ws ...VminWindow) VminOption { return func(c *VminConfig) { c.Windows = ws } }

// VminWorkers caps the concurrent bias-step workers (zero: one worker
// per CPU, one: serial).
func VminWorkers(n int) VminOption { return func(c *VminConfig) { c.Workers = n } }

// Vmin lowers the supply in 0.5% steps until first failure and
// reports the available margin. The bias grid is probed in parallel
// (VminWorkers; default one worker per CPU) with a deterministic
// descending-bias reduction, so the result matches the serial walk
// exactly; every bias step reuses a pooled measurement session, so
// the circuit is built and factored once for the whole walk.
// Canceling ctx interrupts the walk mid-window.
func Vmin(ctx context.Context, p *Platform, workloads [NumCores]Workload, opts ...VminOption) (*VminResult, error) {
	cfg := vmin.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return vmin.Run(ctx, p, workloads, cfg)
}

// MappingOpportunity quantifies the noise-aware workload mapping
// head-room for one workload count (the paper's Figure 15).
type MappingOpportunity = mapping.Opportunity

// Placement is one evaluated workload-to-core mapping.
type Placement = mapping.Placement

// GuardbandController implements utilization-based dynamic voltage
// guard-banding (the paper's Section VII-B).
type GuardbandController = guardband.Controller

// GuardbandTable maps active-core count to required margin.
type GuardbandTable = guardband.MarginTable

// NewGuardbandController builds a controller from a margin table.
func NewGuardbandController(t GuardbandTable) (*GuardbandController, error) {
	return guardband.NewController(t)
}

// GuardbandFromDroops builds a margin table from measured worst-case
// droops per active-core count.
func GuardbandFromDroops(worstDroopPercent [NumCores + 1]float64, safetyPercent float64) (GuardbandTable, error) {
	return guardband.FromDroops(worstDroopPercent, safetyPercent)
}

// UtilizationPhase is one segment of a utilization trace.
type UtilizationPhase = guardband.UtilizationPhase

// ReplayGuardband runs the controller over a utilization trace and
// reports the achievable energy savings versus a static worst-case
// guard-band.
func ReplayGuardband(c *GuardbandController, trace []UtilizationPhase) (guardband.Savings, error) {
	return guardband.Replay(c, trace)
}

// Trace is a uniformly sampled waveform.
type Trace = signal.Trace

// ImpedancePoint is one sample of a PDN impedance profile.
type ImpedancePoint = pdn.ImpedancePoint

// LogSpace returns n logarithmically spaced frequencies.
func LogSpace(lo, hi float64, n int) []float64 { return pdn.LogSpace(lo, hi, n) }

// ImpedancePeaks returns the local maxima of an impedance profile,
// sorted by descending magnitude.
func ImpedancePeaks(profile []ImpedancePoint) []ImpedancePoint { return pdn.Peaks(profile) }

// FreqPoint is one stimulus frequency of a sweep.
type FreqPoint = noise.FreqPoint

// MisalignPoint is one setting of the misalignment study.
type MisalignPoint = noise.MisalignPoint

// MarginPoint is one cell of the consecutive-event margin study.
type MarginPoint = noise.MarginPoint

// MappingRun is one workload-to-core mapping measurement.
type MappingRun = noise.MappingRun

// DeltaIPoint is one point of the noise-vs-delta-I condensation.
type DeltaIPoint = noise.DeltaIPoint

// DistributionPoint is one workload distribution of the Figure 11b
// condensation.
type DistributionPoint = noise.DistributionPoint

// PropagationResult reports a single-core delta-I propagation study.
type PropagationResult = noise.PropagationResult

// Workload kinds for mapping studies.
const (
	KindIdle   = noise.KindIdle
	KindMedium = noise.KindMedium
	KindMax    = noise.KindMax
)

// DeltaISensitivity condenses a mapping study into noise-vs-delta-I
// points (the paper's Figure 11a).
func DeltaISensitivity(runs []MappingRun) []DeltaIPoint { return noise.DeltaISensitivity(runs) }

// WorstDroops condenses a mapping study into the worst droop, in
// percent of vnom, for each active-core count: the input of
// GuardbandFromDroops (the paper's Section VII-B).
func WorstDroops(runs []MappingRun, vnom float64) [NumCores + 1]float64 {
	return noise.WorstDroops(runs, vnom)
}

// DistributionAnalysis condenses a mapping study into noise by
// workload distribution (the paper's Figure 11b).
func DistributionAnalysis(runs []MappingRun) []DistributionPoint {
	return noise.DistributionAnalysis(runs)
}

// CorrelationStudy computes the inter-core noise correlation matrix of
// a mapping study and the two core clusters it reveals (the paper's
// Figure 13a).
func CorrelationStudy(runs []MappingRun) (matrix [][]float64, clusters [][]int) {
	return noise.CorrelationStudy(runs)
}

// NormalizeMargins rescales margins relative to the smallest margin
// observed (the paper's Figure 12 normalization).
func NormalizeMargins(points []MarginPoint) []float64 { return noise.NormalizeMargins(points) }

// GeneticConfig parameterizes the genetic-algorithm sequence search —
// the AUDIT-style baseline the paper contrasts its exhaustive
// white-box pipeline with.
type GeneticConfig = stressmark.GeneticConfig

// GeneticResult reports a GA search.
type GeneticResult = stressmark.GeneticResult

// DefaultGeneticConfig returns the calibrated GA settings.
func DefaultGeneticConfig() GeneticConfig { return stressmark.DefaultGeneticConfig() }

// EvolveMaxPowerSequence runs the GA search over the same candidate
// pool and power evaluation as the exhaustive pipeline.
func EvolveMaxPowerSequence(cfg GeneticConfig) (*GeneticResult, error) {
	return stressmark.EvolveMaxPowerSequence(cfg)
}

// DitherWorkloads builds AUDIT-style probabilistically aligned
// stressmark copies: each core delays its burst by a pseudo-random
// offset within the window, re-drawn every period. Comparing them with
// TOD-synchronized copies reproduces the paper's argument for
// deterministic alignment.
func DitherWorkloads(s StressmarkSpec, cfg CoreConfig, window float64, seed uint64) ([NumCores]Workload, error) {
	return stressmark.DitherWorkloads(s, cfg, isa.ZEC12Table(), window, seed)
}

// CycleAccurateWorkload lowers a free-running stressmark to a workload
// whose power waveform comes from the cycle-level executor rather than
// the analytic envelope (the ablation validating envelope mode).
func CycleAccurateWorkload(s StressmarkSpec, cfg CoreConfig, dtBucket float64) (Workload, error) {
	return stressmark.CycleAccurateWorkload(s, cfg, dtBucket)
}

// SensitivitySummary quantifies the relative importance of the four
// noise parameters (the paper's Section V-F conclusion).
type SensitivitySummary = noise.SensitivitySummary

// CPMConfig parameterizes the critical-path-monitor closed-loop
// guard-band controller.
type CPMConfig = guardband.CPMConfig

// CPMController is the POWER7-style adaptive guard-band loop the paper
// references as the consumer of its noise bounds.
type CPMController = guardband.CPMController

// DefaultCPMConfig returns a conservative closed-loop configuration.
func DefaultCPMConfig() CPMConfig { return guardband.DefaultCPMConfig() }

// NewCPMController builds the closed-loop controller at nominal bias.
func NewCPMController(cfg CPMConfig) (*CPMController, error) {
	return guardband.NewCPMController(cfg)
}

// SchedulerPolicy decides where an arriving job is placed.
type SchedulerPolicy = scheduler.Policy

// SchedulerEvent is one arrival or departure in a job trace.
type SchedulerEvent = scheduler.Event

// SchedulerResult summarizes one policy's run over a trace.
type SchedulerResult = scheduler.RunResult

// PairwiseNoiseModel scores placements from per-core base noise plus
// pairwise coupling increments.
type PairwiseNoiseModel = scheduler.PairwiseModel

// FirstFitPolicy returns the naive lowest-free-core scheduler.
func FirstFitPolicy() SchedulerPolicy { return scheduler.FirstFit() }

// RoundRobinPolicy returns a rotating scheduler.
func RoundRobinPolicy() SchedulerPolicy { return scheduler.RoundRobin() }

// NoiseAwarePolicy returns the cluster-spreading scheduler built on the
// paper's inter-core propagation findings (Section VII-A).
func NoiseAwarePolicy() SchedulerPolicy { return scheduler.NoiseAware() }

// FitPairwiseNoiseModel measures singles and pairs through the given
// evaluator and fits the pairwise model. The 21 measurements spread
// across `workers` concurrent workers (<= 0 selects one per CPU, 1
// measures serially); with more than one worker the evaluator must be
// safe for concurrent use. The fitted model is bit-identical for every
// worker count.
func FitPairwiseNoiseModel(workers int, eval func(cores []int) (float64, error)) (*PairwiseNoiseModel, error) {
	return scheduler.FitPairwise(workers, eval)
}

// CompareSchedulers replays the trace under each policy.
func CompareSchedulers(policies []SchedulerPolicy, model *PairwiseNoiseModel, trace []SchedulerEvent) ([]*SchedulerResult, error) {
	return scheduler.Compare(policies, model, trace)
}

// GenerateJobTrace builds a deterministic bursty job trace for
// scheduler studies.
func GenerateJobTrace(n int, meanInterarrival, meanService float64, seed uint64) ([]SchedulerEvent, error) {
	return scheduler.GenerateTrace(n, meanInterarrival, meanService, seed)
}

// PDNNetlist renders the calibrated PDN as a SPICE deck for external
// cross-checking.
func PDNNetlist(cfg PlatformConfig, title string) string {
	circuit, _ := pdn.ZEC12(cfg.PDN)
	return circuit.Netlist(title)
}

// App is one synthetic application workload from the suite.
type App = apps.App

// AppSuite returns the synthetic application suite — the "regular user
// codes" the paper's stressmarks must bound.
func AppSuite(table *isa.Table) []*App { return apps.Suite(table) }

// ChipVariant derives a deterministic manufacturing variant of the
// platform configuration (the paper validates its results across
// several CP chips). Chip 0 is the reference.
func ChipVariant(cfg PlatformConfig, id uint64) PlatformConfig { return core.ChipVariant(cfg, id) }

// ChipPopulation builds the reference platform plus n-1
// deterministic manufacturing variants across `workers` concurrent
// workers (<= 0 selects one per CPU); chip i always lands at index i.
// A canceled context aborts the remaining platform constructions.
func ChipPopulation(ctx context.Context, cfg PlatformConfig, n, workers int) ([]*Platform, error) {
	return core.ChipPopulation(ctx, cfg, n, workers)
}

// PopulationConfig describes a fleet-scale population study: chip
// count, fleet age, core-class mix, tech node, decap budget, C-state
// exit rate, and the scheduling knobs.
type PopulationConfig = population.Config

// PopulationResult is a population study's summary: droop, Vmin and
// guard-band distributions across the fleet, a per-core-class
// breakdown, and the worst chips.
type PopulationResult = population.Result

// PopulationDistribution summarizes one fleet metric (count, exact
// extremes and mean, sketch quantiles).
type PopulationDistribution = population.Distribution

// DefaultPopulationConfig returns a 1,000-chip homogeneous O3 fleet
// on the calibrated 45 nm platform, fresh silicon.
func DefaultPopulationConfig() PopulationConfig { return population.DefaultConfig() }

// CoreClasses lists the supported population core classes.
func CoreClasses() []population.CoreClass { return population.Classes() }

// TechNodes lists the supported population tech-node scaling rows.
func TechNodes() []population.TechNode { return population.TechNodes() }

// RunPopulationStudy measures the aligned C-state-exit noise of every
// chip in the configured fleet — heterogeneous classes, aged, with
// binned electrical variation packed into lockstep batch lanes — and
// reduces the per-chip results into distribution summaries. Results
// are bit-identical for every Workers and Batch setting.
func RunPopulationStudy(ctx context.Context, cfg PopulationConfig) (*PopulationResult, error) {
	return population.Run(ctx, cfg)
}
