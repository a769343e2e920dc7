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
// The facade exports only what its examples and the benchmark call,
// plus the types those calls return; the remaining studies and knobs
// are reached through the cmd/ drivers. The examples live in
// example_test.go and go test checks their output: ExampleRunService
// is the quick start, ExampleBatchSweep tunes a batch size, and
// ExampleRunSystem sweeps end-to-end load.
package simr

import (
	"simr/internal/core"
	"simr/internal/queuesim"
	"simr/internal/stats"
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
	// BatchSweepRow is one RPU batch-size point of a batch-tuning sweep.
	BatchSweepRow = core.BatchSweepRow
	// SystemConfig parameterises the end-to-end queueing scenario. It
	// carries run parameters only (load, windows, RPU batching, cores,
	// seed); the tier demands, hit rate and wire hop are fixed by the
	// Figure 22 social graph.
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

// DefaultOptions returns the paper's baseline RPU configuration
// (per-API+argument-size batching, SIMR-aware allocation, stack
// interleaving, majority voting, atomics at L3).
func DefaultOptions() Options { return core.DefaultOptions() }

// RunService executes requests on one core of the architecture and
// returns timing, energy and memory statistics.
func RunService(arch Arch, svc *Service, reqs []Request, opts Options) (*Result, error) {
	return core.RunService(arch, svc, reqs, opts)
}

// BatchSweep runs the CPU baseline plus one RPU run per batch size
// over the same requests on a worker pool (the §III-B3 tuning space).
func BatchSweep(svc *Service, reqs []Request, sizes []int, workers int) (*Result, []BatchSweepRow, error) {
	return core.BatchSweep(svc, reqs, sizes, workers)
}

// DefaultSystemConfig returns the Figure 22 end-to-end scenario.
func DefaultSystemConfig() SystemConfig { return queuesim.DefaultConfig() }

// RunSystem simulates one end-to-end load point: the Figure 22 social
// graph at 1x scale. A configuration the engine rejects (no load, no
// measured window, a negative drain) yields the empty measurement,
// Completed 0 and an empty Latency; returning the error instead waits
// for the benchmark, which calls RunSystem, to move with it.
func RunSystem(cfg SystemConfig) *SystemMetrics {
	m, err := queuesim.RunTail(queuesim.TailConfig{Config: cfg, Scale: 1})
	if err != nil {
		return &SystemMetrics{Offered: cfg.QPS, Latency: stats.NewSample(0)}
	}
	return m
}
