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
// The facade exports only what the examples, the benchmark and the
// quick start below call, plus the types those calls return; the
// remaining studies and knobs are reached through the cmd/ drivers.
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
	"simr/internal/core"
	"simr/internal/queuesim"
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
	// BatchSweepRow is one RPU batch-size point of a batch-tuning sweep.
	BatchSweepRow = core.BatchSweepRow
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

// NewSuite constructs the 15 microservices with freshly linked
// programs and shared tables.
func NewSuite() *Suite { return uservices.NewSuite() }

// NewGPGPUSuite constructs the §VI-D data-parallel SPMD kernels
// (saxpy, dot product, stencil) for the GPGPU-on-RPU study.
func NewGPGPUSuite() *Suite { return uservices.NewGPGPUSuite() }

// DefaultOptions returns the paper's baseline RPU configuration
// (per-API+argument-size batching, SIMR-aware allocation, stack
// interleaving, majority voting, atomics at L3).
func DefaultOptions() Options { return core.DefaultOptions() }

// RunService executes requests on one core of the architecture and
// returns timing, energy and memory statistics.
func RunService(arch Arch, svc *Service, reqs []Request, opts Options) (*Result, error) {
	return core.RunService(arch, svc, reqs, opts)
}

// RunCells evaluates fn(0..n-1) on a bounded worker pool and returns
// the results in input order — the primitive all parallel studies are
// built on. workers == 1 runs inline (sequential); workers <= 0 uses
// one worker per CPU.
func RunCells[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return core.RunCells(n, workers, fn)
}

// ChipStudyParallel runs the chip-level comparison behind Figures 10,
// 14, 19, 20 and 21 on a worker pool (workers <= 0: one per CPU; 1:
// sequential). Rows are identical at any worker count for the same
// seed; requests below 1 are an error.
func ChipStudyParallel(suite *Suite, requests int, seed int64, withGPU bool, workers int) ([]ChipRow, error) {
	return core.ChipStudyParallel(suite, requests, seed, withGPU, workers)
}

// BatchSweep runs the CPU baseline plus one RPU run per batch size
// over the same requests on a worker pool (the §III-B3 tuning space).
func BatchSweep(svc *Service, reqs []Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	return core.BatchSweep(svc, reqs, sizes, workers)
}

// DefaultSystemConfig returns the Figure 22 end-to-end scenario.
func DefaultSystemConfig() SystemConfig { return queuesim.DefaultConfig() }

// RunSystem simulates one end-to-end load point.
func RunSystem(cfg SystemConfig) *SystemMetrics { return queuesim.Run(cfg) }
