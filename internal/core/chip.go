package core

import (
	"fmt"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/energy"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/stats"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// Options tunes an RPU/GPU run; the zero value (after Defaults) is the
// paper's baseline configuration.
type Options struct {
	// BatchSize overrides the service's tuned batch size (0 = tuned).
	BatchSize int
	// Policy is the batching-server grouping policy.
	Policy batch.Policy
	// AllocPolicy selects the heap allocator.
	AllocPolicy alloc.Policy
	// Lanes overrides the SIMT lane count (0 = config default).
	Lanes int
	// StackInterleave applies the 4-byte stack physical interleave.
	StackInterleave bool
	// MajorityVote enables per-batch majority-voted prediction.
	MajorityVote bool
	// AtomicsAtL3 routes atomics to the shared L3.
	AtomicsAtL3 bool
	// UseIPDOM selects the ideal stack-based reconvergence scheme
	// instead of MinSP-PC.
	UseIPDOM bool
	// Spin enables the livelock mitigation.
	Spin *simt.SpinConfig
	// CPUPrefetch attaches a next-line prefetcher to the scalar CPU's
	// L1 (Table III ablation: prefetchers are ineffective on
	// microservice heaps).
	CPUPrefetch bool
	// Traces optionally supplies a scalar-trace cache (see
	// internal/trace) that RunService reads; nil interprets every
	// request fresh. Results are byte-identical either way. No study
	// sets it: the only reader is the cold/warm prep probe in
	// bench/phaseb.go, and the field goes with internal/trace at the
	// next change to bench/.
	Traces *trace.Cache
	// BatchStreams optionally supplies a batch-stream cache memoizing
	// the post-merge preparation product (merged uop stream + MCU
	// delta + op counts) that RunService reads; nil prepares every
	// batch fresh. Cached streams are cache-owned and read-only.
	// Results are byte-identical either way. As with Traces, the only
	// reader is bench/phaseb.go's prep probe, and the field goes with
	// internal/trace at the next change to bench/.
	BatchStreams *trace.BatchCache
	// PrepLookahead is ignored: every run prepares its units one after
	// another, each just before the timing core runs it.
	//
	// Deprecated: ignored; every run prepares sequentially.
	PrepLookahead int
}

// DefaultOptions is the paper's baseline RPU configuration. Spin points
// at a private copy of simt.DefaultSpin so callers (and concurrent
// runs) can mutate it without affecting the package global or each
// other.
func DefaultOptions() Options {
	spin := simt.DefaultSpin
	return Options{
		Policy:          batch.PerAPIArgSize,
		AllocPolicy:     alloc.PolicySIMR,
		StackInterleave: true,
		MajorityVote:    true,
		AtomicsAtL3:     true,
		Spin:            &spin,
	}
}

// validate rejects options a run would otherwise replace with its
// defaults or misread: a negative BatchSize or Lanes (zero selects the
// tuned batch size and the configured lane count), a BatchSize or
// Lanes wider than the simt.MaxBatch threads an active mask holds, and
// a Policy or AllocPolicy that names no policy.
func (o *Options) validate() error {
	switch {
	case o.BatchSize < 0:
		return fmt.Errorf("core: Options.BatchSize %d is negative (0 selects the service's tuned size)", o.BatchSize)
	case o.BatchSize > simt.MaxBatch:
		return fmt.Errorf("core: Options.BatchSize %d exceeds the widest batch, %d", o.BatchSize, simt.MaxBatch)
	case o.Lanes < 0:
		return fmt.Errorf("core: Options.Lanes %d is negative (0 selects the configured lane count)", o.Lanes)
	case o.Lanes > simt.MaxBatch:
		return fmt.Errorf("core: Options.Lanes %d exceeds the widest batch, %d", o.Lanes, simt.MaxBatch)
	case o.Policy > batch.PerAPIArgSize:
		return fmt.Errorf("core: Options.Policy %d names no batching policy", o.Policy)
	case o.AllocPolicy > alloc.PolicySIMR:
		return fmt.Errorf("core: Options.AllocPolicy %d names no heap allocation policy", o.AllocPolicy)
	}
	return nil
}

// Result is one (architecture, service) chip-level measurement.
type Result struct {
	Arch     Arch
	Service  string
	Requests int
	Batches  int
	// Stats aggregates the pipeline counters over all runs; Stats.Mem
	// sums each run's memory-counter delta, which equals the final
	// cumulative snapshot of the run's memory system.
	Stats pipeline.Stats
	// Energy is the total energy over all requests.
	Energy energy.Breakdown
	// Latency samples one service latency per request, in cycles.
	Latency *stats.Sample
	// SIMTEff is the weighted SIMT control efficiency (1 for scalar).
	SIMTEff float64
	// FreqGHz converts cycles to seconds.
	FreqGHz float64
}

// AvgLatencySec returns the mean per-request service latency.
func (r *Result) AvgLatencySec() float64 {
	return r.Latency.Mean() / (r.FreqGHz * 1e9)
}

// ReqPerJoule returns the headline energy-efficiency metric.
func (r *Result) ReqPerJoule() float64 {
	j := r.Energy.Total()
	if j == 0 {
		return 0
	}
	return float64(r.Requests) / j
}

// L1AccessesPerRequest returns L1 data accesses per request.
func (r *Result) L1AccessesPerRequest() float64 {
	return stats.Ratio(float64(r.Stats.Mem.L1.Accesses), float64(r.Requests))
}

// L1MPKI returns L1 misses per thousand scalar instructions.
func (r *Result) L1MPKI() float64 {
	return r.Stats.Mem.L1.MPKI(r.Stats.ScalarOps)
}

// RunService executes the requests on one core of the architecture and
// returns the aggregated measurement. CPU runs the requests
// sequentially; SMT-8 runs them in groups of 8; RPU/GPU batch them via
// the SIMR-aware server and run them in lock-step. Each call builds
// its own prep scratch, core and memory hierarchy. An empty request
// list and options that validate rejects are errors.
func RunService(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("core: no requests to run on %v", arch)
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	var res []*Result
	var err error
	switch arch {
	case ArchCPU, ArchSMT8:
		res, err = runScalar(svc, reqs, []Arch{arch}, opts, nil, nil)
	case ArchRPU, ArchGPU:
		res, err = runBatched(svc, reqs, []Arch{arch}, []Options{opts}, nil, nil)
	default:
		return nil, fmt.Errorf("core: invalid arch %v", arch)
	}
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

func newResult(arch Arch, svc *uservices.Service, n int) *Result {
	return &Result{
		Arch:     arch,
		Service:  svc.Name,
		Requests: n,
		Latency:  stats.NewSample(n),
		SIMTEff:  1,
		FreqGHz:  PipelineConfig(arch).FreqGHz,
	}
}

// timing is one architecture's timing model in a run: its memory
// hierarchy, core, energy model and Result.
type timing struct {
	ms    *mem.System
	core  *pipeline.Core
	res   *Result
	model *energy.Model
}

// run times one unit — the stream s, serving reqs requests — on the
// model. A non-nil mcu is the stream's MCU count delta, applied to
// ms.MCU inside the unit's stats window.
func (tm *timing) run(s pipeline.Stream, reqs int, mcu *mem.MCUStats) {
	prev := tm.ms.Stats()
	if mcu != nil {
		tm.ms.MCU.Add(mcu)
	}
	tm.ms.ResetTiming()
	st := tm.core.Run(tm.ms, s)
	st.Mem = st.Mem.Delta(&prev)
	tm.res.Stats.Accumulate(&st)
	for j := 0; j < reqs; j++ {
		tm.res.Latency.Add(float64(st.Cycles))
	}
}

// finish prices the run's energy.
func (tm *timing) finish() *Result {
	tm.res.Energy = tm.model.Compute(&tm.res.Stats, tm.res.FreqGHz)
	return tm.res
}

// smtWays is the SMT-8 core's thread count, the size of the groups
// runScalar walks the requests in.
const smtWays = 8

// runScalar models the CPU side, one Result per architecture of
// arches, in arches order: the single-threaded CPU (ArchCPU) and the
// SMT-8 CPU (ArchSMT8), each at most once. The CPU's one worker thread
// serves requests back to back on a warm core, reusing its stack
// (which is why consecutive CPU threads enjoy prefetched shared data,
// paper §V-A). The SMT-8 core runs them in groups of 8 worker threads
// that dispatch round-robin through a shared frontend with per-thread
// ROB partitions and a shared banked L1.
//
// Both time one interpretation of each request. The loop walks the
// requests in groups of 8 and traces each request once, just before
// the first model that needs it: the CPU times the group's requests
// one by one, and the SMT-8 core then times the stream prepSlot.smt
// builds from the same traces. Of the options only Traces,
// BatchStreams and, on the CPU, CPUPrefetch apply (the scalar cores
// are not RPU configurations).
func runScalar(svc *uservices.Service, reqs []uservices.Request, arches []Arch, opts Options, ws *workSet, sys *sysList) ([]*Result, error) {
	groups := (len(reqs) + smtWays - 1) / smtWays
	tms := make([]timing, len(arches))
	var cpu, smt *timing
	for v, arch := range arches {
		tm := &tms[v]
		switch {
		case arch == ArchCPU && cpu == nil:
			cpu = tm
		case arch == ArchSMT8 && smt == nil:
			smt = tm
		default:
			return nil, fmt.Errorf("core: architectures %v are not distinct scalar architectures", arches)
		}
		tm.ms = sys.get(MemConfig(arch))
		defer sys.put(tm.ms)
		if arch == ArchCPU && opts.CPUPrefetch {
			tm.ms.PF = mem.NewPrefetcher(2)
		}
		tm.core = ws.core(v, PipelineConfig(arch))
		tm.res = newResult(arch, svc, len(reqs))
		tm.model = EnergyModel(arch)
	}

	// A group's SMT-8 stream is built just before the SMT-8 core runs
	// it, or served by the batch-stream cache when the options carry
	// one. build reads the slot's current group, so one closure serves
	// every group and a cache hit allocates nothing.
	p := ws.slot(svc, opts.Traces)
	var (
		key   []byte
		local trace.BatchStream
	)
	build := func() (*trace.BatchStream, error) {
		s, err := p.smt()
		if err != nil {
			return nil, err
		}
		local = trace.BatchStream{Stream: s, Requests: len(p.group)}
		return &local, nil
	}
	po := prepProbe()
	for g := 0; g < groups; g++ {
		first := g * smtWays
		group := reqs[first:min(first+smtWays, len(reqs))]
		p.setGroup(group)
		if cpu != nil {
			for i := range group {
				t0 := po.clock()
				s, err := p.scalar(i)
				if err != nil {
					return nil, err
				}
				t1 := po.clock()
				cpu.run(s, 1, nil)
				po.unit(t0, t1)
			}
		}
		if smt == nil {
			continue
		}
		t0 := po.clock()
		var bs *trace.BatchStream
		var err error
		if opts.BatchStreams == nil {
			bs, err = build()
		} else {
			// An 8-way group's first stack starts at StackRegion.
			key = trace.AppendBatchKey(key[:0], trace.KeySMT, group, smtWays,
				false, nil, alloc.PolicyCPU, false, lineBytes, 1, alloc.StackRegion)
			bs, err = opts.BatchStreams.Get(key, build)
		}
		if err != nil {
			return nil, err
		}
		t1 := po.clock()
		smt.run(bs.Stream, bs.Requests, nil)
		po.unit(t0, t1)
	}
	out := make([]*Result, len(tms))
	for v := range tms {
		out[v] = tms[v].finish()
	}
	return out, nil
}

// memConfig is MemConfig as runBatched sees it; the variant tests swap
// it to give an architecture another L1 geometry.
var memConfig = MemConfig

// runBatched models the RPU (and GPU): the SIMR-aware server forms
// batches, the driver lays out contiguous stacks and SIMR-aware heap
// arenas, the SIMT engine lock-steps the traces and the OoO-SIMT core
// executes the merged stream. Each batch is prepared once, just before
// it is timed on every variant, variant v on architecture arches[v].
// checkVariants holds the variants to what one preparation serves: RPU
// and GPU architectures with one L1 line size and bank count, and
// options that differ from variants[0] only in the timing knobs (Lanes,
// MajorityVote, AtomicsAtL3). Each variant gets its own core, memory
// hierarchy and Result, in variants order.
func runBatched(svc *uservices.Service, reqs []uservices.Request, arches []Arch, variants []Options, ws *workSet, sys *sysList) ([]*Result, error) {
	if err := checkVariants(arches, variants); err != nil {
		return nil, err
	}
	opts := &variants[0]
	size := opts.BatchSize
	if size <= 0 {
		size = svc.TunedBatch
	}
	banks := memConfig(arches[0]).L1.Banks
	reconv := svc.BranchReconv()
	batches := batch.Form(reqs, size, opts.Policy)

	// One timing model per variant; all of them time the same prepared
	// stream of each batch in turn.
	tms := make([]timing, len(variants))
	for v := range variants {
		o, arch := &variants[v], arches[v]
		cfgP := PipelineConfig(arch)
		cfgM := memConfig(arch)
		if o.Lanes > 0 {
			cfgP.Lanes = o.Lanes
		}
		cfgP.MajorityVote = o.MajorityVote
		cfgM.AtomicsAtL3 = o.AtomicsAtL3
		tm := &tms[v]
		tm.ms = sys.get(cfgM)
		defer sys.put(tm.ms)
		tm.core = ws.core(v, cfgP)
		tm.res = newResult(arch, svc, len(reqs))
		tm.res.Batches = len(batches)
		tm.model = EnergyModel(arch)
	}

	// Preparation — trace fetch, lock-step merge, uop build — writes
	// only the slot's scratch and the stream's MCUStats delta, so one
	// prepared stream serves every variant: each applies the delta to
	// its own ms.MCU before Run, inside the prev/Delta window of that
	// batch. When the options carry a batch-stream cache, prep consults
	// it first and only falls back to build on a miss; a hit serves a
	// cache-owned read-only stream with zero allocations (build reads
	// the current batch, and the key buffer is reused).
	totalScalar, totalBatchOps := 0, 0
	p := ws.slot(svc, opts.Traces)
	var (
		key   []byte
		b     *batch.Batch
		local trace.BatchStream
	)
	build := func() (*trace.BatchStream, error) {
		if err := p.batch(b, opts, size, banks, reconv, &local); err != nil {
			return nil, err
		}
		return &local, nil
	}
	po := prepProbe()
	for u := range batches {
		t0 := po.clock()
		b = &batches[u]
		var bs *trace.BatchStream
		var err error
		if opts.BatchStreams == nil {
			bs, err = build()
		} else {
			// Batch 0's stack group always starts at StackRegion, so
			// the key's stack base is known without laying the group
			// out. Lanes, majority voting, atomics placement and
			// frequency are timing-only and deliberately absent.
			key = trace.AppendBatchKey(key[:0], trace.KeyBatch, b.Requests, size,
				opts.UseIPDOM, opts.Spin, opts.AllocPolicy, opts.StackInterleave,
				lineBytes, banks, alloc.StackRegion)
			bs, err = opts.BatchStreams.Get(key, build)
		}
		if err != nil {
			return nil, err
		}
		t1 := po.clock()
		totalScalar += bs.ScalarOps
		totalBatchOps += bs.BatchOps
		for v := range tms {
			tms[v].run(bs.Stream, bs.Requests, &bs.MCU)
		}
		po.unit(t0, t1)
	}
	out := make([]*Result, len(tms))
	for v := range tms {
		if totalBatchOps > 0 {
			tms[v].res.SIMTEff = float64(totalScalar) / (float64(totalBatchOps) * float64(size))
		}
		out[v] = tms[v].finish()
	}
	return out, nil
}

// checkVariants rejects a variant list runBatched cannot prepare once:
// an empty one, one holding options that validate rejects, one whose
// architectures are not batched (RPU or GPU), do not pair one-to-one
// with the options or lay out heap arenas and coalesce for another L1
// line size or bank count than arches[0], or one whose options differ
// from the first in any field that shapes the prepared batch streams
// (batch size and stack layout included) or how they are walked.
func checkVariants(arches []Arch, variants []Options) error {
	if len(variants) == 0 {
		return fmt.Errorf("core: no timing variants to run")
	}
	if len(arches) != len(variants) {
		return fmt.Errorf("core: %d architectures for %d timing variants", len(arches), len(variants))
	}
	for i := range variants {
		if err := variants[i].validate(); err != nil {
			return fmt.Errorf("%w (timing variant %d)", err, i)
		}
	}
	l1 := memConfig(arches[0]).L1
	for i, a := range arches {
		if a != ArchRPU && a != ArchGPU {
			return fmt.Errorf("core: timing variant %d runs on %v; only RPU and GPU variants share a batch preparation", i, a)
		}
		switch o := memConfig(a).L1; {
		case o.LineBytes != l1.LineBytes:
			return fmt.Errorf("core: timing variant %d's L1 has %d-byte lines, variant 0's %d; variants must share the L1 LineBytes", i, o.LineBytes, l1.LineBytes)
		case o.Banks != l1.Banks:
			return fmt.Errorf("core: timing variant %d's L1 has %d banks, variant 0's %d; variants must share the L1 Banks", i, o.Banks, l1.Banks)
		}
	}
	base := &variants[0]
	for i := 1; i < len(variants); i++ {
		o := &variants[i]
		var field string
		switch {
		case o.BatchSize != base.BatchSize:
			field = "BatchSize"
		case o.Policy != base.Policy:
			field = "Policy"
		case o.AllocPolicy != base.AllocPolicy:
			field = "AllocPolicy"
		case o.StackInterleave != base.StackInterleave:
			field = "StackInterleave"
		case o.UseIPDOM != base.UseIPDOM:
			field = "UseIPDOM"
		case (o.Spin == nil) != (base.Spin == nil) || o.Spin != nil && *o.Spin != *base.Spin:
			field = "Spin"
		case o.Traces != base.Traces:
			field = "Traces"
		case o.BatchStreams != base.BatchStreams:
			field = "BatchStreams"
		default:
			continue
		}
		return fmt.Errorf("core: timing variant %d differs from variant 0 in %s; variants may differ only in Lanes, MajorityVote and AtomicsAtL3", i, field)
	}
	return nil
}
