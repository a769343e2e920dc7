// Package simr is the public facade of the SIMR reproduction — the
// MICRO 2022 paper "SIMR: Single Instruction Multiple Request
// Processing for Energy-Efficient Data Center Microservices" (Khairy,
// Alawneh, Barnes, Rogers) rebuilt as a self-contained Go library.
//
// The library contains:
//
//   - a µISA with a structured program builder and per-request
//     interpreter standing in for x86 binaries + PIN tracing,
//   - the 15-microservice social-network suite,
//   - the SIMR-aware batching server (naive / per-API /
//     per-API+argument-size policies, batch splitting),
//   - the lock-step SIMT engine (MinSP-PC and ideal IPDOM),
//   - cycle-level core models for the CPU, CPU-SMT8, RPU and a GPU,
//   - the banked-cache + MCU + DRAM memory system,
//   - a McPAT-style energy/area model, and
//   - a uqsim-style system-level queueing simulator.
//
// Quick start:
//
//	suite := simr.NewSuite()
//	svc := suite.Get("memc")
//	reqs := svc.Generate(rand.New(rand.NewSource(1)), 2400)
//	cpu, _ := simr.RunService(simr.ArchCPU, svc, reqs, simr.DefaultOptions())
//	rpu, _ := simr.RunService(simr.ArchRPU, svc, reqs, simr.DefaultOptions())
//	fmt.Printf("requests/joule: %.1fx\n", rpu.ReqPerJoule()/cpu.ReqPerJoule())
package simr

import (
	"io"

	"simr/internal/core"
	"simr/internal/queuesim"
	"simr/internal/sample"
	"simr/internal/uservices"
)

// Re-exported workload types.
type (
	// Suite is the 15-microservice workload set.
	Suite = uservices.Suite
	// Service is one microservice with its API programs and request
	// generator.
	Service = uservices.Service
	// Request is one incoming RPC/HTTP request.
	Request = uservices.Request
)

// Re-exported experiment types.
type (
	// Arch selects a hardware design point.
	Arch = core.Arch
	// Options tunes an RPU/GPU run.
	Options = core.Options
	// Result is a chip-level measurement.
	Result = core.Result
	// ChipRow pairs one service's results across architectures.
	ChipRow = core.ChipRow
	// EffRow is one service's SIMT efficiency per batching policy.
	EffRow = core.EffRow
	// MPKIRow is one service's L1 MPKI per configuration.
	MPKIRow = core.MPKIRow
	// SystemConfig parameterises the end-to-end queueing scenario.
	SystemConfig = queuesim.Config
	// SystemMetrics is one load point's outcome.
	SystemMetrics = queuesim.TailMetrics
)

// Architectures under study (Table IV columns).
const (
	ArchCPU  = core.ArchCPU
	ArchSMT8 = core.ArchSMT8
	ArchRPU  = core.ArchRPU
	ArchGPU  = core.ArchGPU
)

// DefaultRequests is the paper's per-service request count (2400).
const DefaultRequests = core.DefaultRequests

// PrepAuto selects an automatic intra-run prep lookahead for
// Options.PrepLookahead, derived from the CPUs the enclosing sweep
// leaves spare.
const PrepAuto = core.PrepAuto

// SetPrepLookahead pins the prep lookahead every PrepAuto resolution
// uses (n >= 0), or restores automatic derivation (n < 0). Results are
// byte-identical at any value; only wall-clock changes.
func SetPrepLookahead(n int) { core.SetPrepLookahead(n) }

// SetTraceCaching toggles the sweep-wide scalar per-request trace
// cache the parallel studies consult (default on). Results are
// byte-identical either way; only wall-clock changes.
func SetTraceCaching(on bool) { core.SetTraceCaching(on) }

// SetBatchCaching toggles the sweep-wide batch-stream cache that
// memoizes the post-merge prep product — merged uop streams, MCU
// deltas and op counts — across the sweep cells that share a workload
// (default on). Results are byte-identical either way; only
// wall-clock changes.
func SetBatchCaching(on bool) { core.SetBatchCaching(on) }

// SetCacheBudget caps the bytes the scalar and batch prep caches may
// retain per sweep, shared across both; bytes <= 0 restores the
// default (512 MiB). Over-budget builds are returned uncached, so the
// budget bounds memory without changing results.
func SetCacheBudget(bytes int64) { core.SetCacheBudget(bytes) }

// Re-exported sampled-simulation types (see internal/sample).
type (
	// SampleConfig selects SMARTS-style sampled timing simulation for
	// Options.Sample: every Period-th batch timed, Warmup batches
	// functionally warmed before each, the rest skipped.
	SampleConfig = sample.Config
	// SampleEstimate is a sampled run's error report, attached to
	// Result.Sampled when sampling skipped work.
	SampleEstimate = sample.Estimate
)

// SetSampling installs the process-wide sampled-simulation default
// every run without an explicit Options.Sample uses; the zero config
// restores full (unsampled) simulation. Period 1 engages the sampler
// but times every unit, leaving results bit-identical to unsampled.
func SetSampling(c SampleConfig) { sample.SetDefault(c) }

// ParseSampleConfig reads the drivers' -sample syntax: "off", PERIOD,
// or PERIOD:WARMUP.
func ParseSampleConfig(s string) (SampleConfig, error) { return sample.Parse(s) }

// NewSuite constructs the 15 microservices with freshly linked
// programs and shared tables.
func NewSuite() *Suite { return uservices.NewSuite() }

// NewGPGPUSuite constructs the §VI-D data-parallel SPMD kernels
// (saxpy, dot product, stencil) for the GPGPU-on-RPU study.
func NewGPGPUSuite() *Suite { return uservices.NewGPGPUSuite() }

// RunISPC models the §VI-A alternative: compiling the service
// SPMD-style onto the CPU's 8-lane SIMD units (ISPC), one request per
// vector lane, with per-lane gathers, predication and scalar fallback.
func RunISPC(svc *Service, reqs []Request) (*Result, error) {
	return core.RunISPC(svc, reqs)
}

// DefaultOptions returns the paper's baseline RPU configuration
// (per-API+argument-size batching, SIMR-aware allocation, stack
// interleaving, majority voting, atomics at L3).
func DefaultOptions() Options { return core.DefaultOptions() }

// RunService executes requests on one core of the architecture and
// returns timing, energy and memory statistics.
func RunService(arch Arch, svc *Service, reqs []Request, opts Options) (*Result, error) {
	return core.RunService(arch, svc, reqs, opts)
}

// EfficiencyStudy reproduces Figures 4/11 (SIMT efficiency per
// batching policy).
func EfficiencyStudy(suite *Suite, requests int, seed int64) ([]EffRow, error) {
	return core.EfficiencyStudy(suite, requests, seed)
}

// ChipStudy reproduces the chip-level comparison behind Figures 10,
// 14, 19, 20 and 21.
func ChipStudy(suite *Suite, requests int, seed int64, withGPU bool) ([]ChipRow, error) {
	return core.ChipStudy(suite, requests, seed, withGPU)
}

// MPKIStudy reproduces Figure 15 (L1 MPKI by batch size).
func MPKIStudy(suite *Suite, requests int, seed int64) ([]MPKIRow, error) {
	return core.MPKIStudy(suite, requests, seed)
}

// SensitivityStudy runs the §V-A1 ablations and writes the report.
func SensitivityStudy(w io.Writer, suite *Suite, services []string, requests int, seed int64) error {
	return core.SensitivityStudy(w, suite, services, requests, seed)
}

// DefaultWorkers is the worker count the parallel studies use when
// given workers <= 0: one per available CPU.
func DefaultWorkers() int { return core.DefaultWorkers() }

// RunCells evaluates fn(0..n-1) on a bounded worker pool and returns
// the results in input order — the primitive all parallel studies are
// built on. workers == 1 runs inline (sequential); workers <= 0 uses
// DefaultWorkers.
func RunCells[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return core.RunCells(n, workers, fn)
}

// EfficiencyStudyParallel is EfficiencyStudy on a worker pool. Rows
// are identical to the sequential study for the same seed.
func EfficiencyStudyParallel(suite *Suite, requests int, seed int64, workers int) ([]EffRow, error) {
	return core.EfficiencyStudyParallel(suite, requests, seed, workers)
}

// ChipStudyParallel is ChipStudy on a worker pool. Rows are identical
// to the sequential study for the same seed.
func ChipStudyParallel(suite *Suite, requests int, seed int64, withGPU bool, workers int) ([]ChipRow, error) {
	return core.ChipStudyParallel(suite, requests, seed, withGPU, workers)
}

// MPKIStudyParallel is MPKIStudy on a worker pool. Rows are identical
// to the sequential study for the same seed.
func MPKIStudyParallel(suite *Suite, requests int, seed int64, workers int) ([]MPKIRow, error) {
	return core.MPKIStudyParallel(suite, requests, seed, workers)
}

// SensitivityStudyParallel is SensitivityStudy on a worker pool; the
// report text is identical to the sequential study for the same seed.
func SensitivityStudyParallel(w io.Writer, suite *Suite, services []string, requests int, seed int64, workers int) error {
	return core.SensitivityStudyParallel(w, suite, services, requests, seed, workers)
}

// BatchSweepRow is one RPU batch-size point of a batch-tuning sweep.
type BatchSweepRow = core.BatchSweepRow

// BatchSweep runs the CPU baseline plus one RPU run per batch size
// over the same requests on a worker pool (the §III-B3 tuning space).
func BatchSweep(svc *Service, reqs []Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	return core.BatchSweep(svc, reqs, sizes, workers)
}

// MultiBatchRow is one service's §III-A multi-batch interleaving
// measurement.
type MultiBatchRow = core.MultiBatchRow

// MultiBatchSweep runs MultiBatchStudy for every service on a worker
// pool.
func MultiBatchSweep(suite *Suite, seed int64, workers int) ([]MultiBatchRow, error) {
	return core.MultiBatchSweep(suite, seed, workers)
}

// TimingVariant is one timing-only RPU design point of a timing sweep.
type TimingVariant = core.TimingVariant

// TimingRow is one service's results across the timing variants.
type TimingRow = core.TimingRow

// DefaultTimingVariants returns the eight timing-only RPU design
// points (lanes × majority voting × L3 atomics) whose prep work is
// identical — the sweep the batch-stream cache collapses to one prep
// per batch.
func DefaultTimingVariants() []TimingVariant { return core.DefaultTimingVariants() }

// TimingSweep runs every service through the timing-variant grid
// sequentially.
func TimingSweep(suite *Suite, requests int, seed int64) ([]TimingRow, error) {
	return core.TimingSweep(suite, requests, seed)
}

// TimingSweepParallel is TimingSweep on a worker pool. Rows are
// identical to the sequential sweep for the same seed.
func TimingSweepParallel(suite *Suite, requests int, seed int64, workers int) ([]TimingRow, error) {
	return core.TimingSweepParallel(suite, requests, seed, workers)
}

// WriteTimingSweep renders the timing-variant report (per-variant
// geomean latency and requests/joule ratios against the first
// variant).
func WriteTimingSweep(w io.Writer, rows []TimingRow) { core.WriteTimingSweep(w, rows) }

// DefaultSystemConfig returns the Figure 22 end-to-end scenario.
func DefaultSystemConfig() SystemConfig { return queuesim.DefaultConfig() }

// RunSystem simulates one end-to-end load point.
func RunSystem(cfg SystemConfig) *SystemMetrics { return queuesim.Run(cfg) }

// SweepSystem runs a QPS sweep.
func SweepSystem(base SystemConfig, qps []float64) []*SystemMetrics {
	return queuesim.Sweep(base, qps)
}

// Re-exported extension-study types.
type (
	// MultiProcessResult is the §VI-B multi-process divergence study.
	MultiProcessResult = core.MultiProcessResult
	// MultiBatchResult is the §III-A batch-interleaving study.
	MultiBatchResult = core.MultiBatchResult
	// ComposePostConfig parameterises the Figure 3 compose-post path.
	ComposePostConfig = queuesim.ComposePostConfig
	// ResultJSON is the machine-readable result record.
	ResultJSON = core.ResultJSON
)

// MultiProcessStudy reproduces §VI-B: lock-step efficiency of threads
// vs separate processes vs base-aligned processes.
func MultiProcessStudy(batchSize int, seed int64) (*MultiProcessResult, error) {
	return core.MultiProcessStudy(batchSize, seed)
}

// MultiBatchStudy quantifies coarse-grain two-batch interleaving on one
// RPU core (the paper's future-work §III-A scheduler).
func MultiBatchStudy(svc *Service, reqs []Request, opts Options) (*MultiBatchResult, error) {
	return core.MultiBatchStudy(svc, reqs, opts)
}

// DefaultComposePost returns the Figure 3 compose-post scenario.
func DefaultComposePost() ComposePostConfig { return queuesim.DefaultComposePost() }

// RunComposePost simulates the compose-post fan-out/join path.
func RunComposePost(cfg ComposePostConfig) *SystemMetrics {
	return queuesim.RunComposePost(cfg)
}

// WriteResultsJSON emits a chip study as JSON records.
func WriteResultsJSON(w io.Writer, rows []ChipRow) error { return core.WriteJSON(w, rows) }
