package core

import (
	"fmt"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/energy"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/sample"
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
	// Traces optionally supplies the sweep's shared scalar-trace cache
	// (see internal/trace); nil interprets every request fresh. Results
	// are byte-identical either way.
	Traces *trace.Cache
	// BatchStreams optionally supplies the sweep's shared batch-stream
	// cache memoizing the post-merge preparation product (merged uop
	// stream + MCU delta + op counts) across cells that differ only in
	// timing-model knobs; nil prepares every batch fresh. Cached
	// streams are cache-owned and read-only. Results are byte-identical
	// either way.
	BatchStreams *trace.BatchCache
	// PrepLookahead bounds how many upcoming batches (or request
	// groups) are prepared — trace fetch, SIMT lock-step merge, uop
	// build — on worker goroutines ahead of the batch the timing core
	// is simulating. 0 runs fully sequentially (the determinism
	// oracle); PrepAuto derives a budget from the CPUs left over by the
	// enclosing sweep. Results are byte-identical at any value; only
	// wall-clock changes.
	PrepLookahead int
	// Sample selects SMARTS-style sampled timing simulation (see
	// internal/sample): every Sample.Period-th unit is fully timed,
	// Sample.Warmup units before each timed one run a functional
	// warmup pass, and the rest are skipped, with aggregate statistics
	// extrapolated under reported confidence intervals. The zero value
	// defers to the process-wide default installed by sample.SetDefault
	// (the drivers' -sample flag); Period 1 times every unit and is
	// bit-identical to the unsampled path.
	Sample sample.Config
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
		PrepLookahead:   PrepAuto,
	}
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
	// Under sampled simulation it is computed from the timed units
	// only — the same subpopulation Stats extrapolates from — so every
	// Result field describes one consistent sample; full runs time
	// every unit and are unaffected.
	SIMTEff float64
	// FreqGHz converts cycles to seconds.
	FreqGHz float64
	// Sampled carries the sampling estimate when sampled timing
	// simulation skipped work (Period > 1); nil for full runs, so
	// unsampled results are unchanged.
	Sampled *sample.Estimate
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
// the SIMR-aware server and run them in lock-step.
func RunService(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	return runService(arch, svc, reqs, opts, nil)
}

// runService is RunService on memory hierarchies drawn from sys (nil
// builds a fresh one).
func runService(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options, sys *sysList) (*Result, error) {
	switch arch {
	case ArchCPU:
		return runScalar(arch, svc, reqs, opts, sys)
	case ArchSMT8:
		return runSMT(arch, svc, reqs, opts, sys)
	case ArchRPU, ArchGPU:
		res, err := runBatched(arch, svc, reqs, []Options{opts}, sys)
		if err != nil {
			return nil, err
		}
		return res[0], nil
	default:
		return nil, fmt.Errorf("core: invalid arch %v", arch)
	}
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

// runScalar models the single-threaded CPU: one worker thread serves
// requests back to back on a warm core, reusing its stack (which is why
// consecutive CPU threads enjoy prefetched shared data, paper §V-A).
// Upcoming requests are traced and uop-converted up to
// opts.PrepLookahead ahead of the one the timing core is running.
func runScalar(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options, sys *sysList) (*Result, error) {
	cfg := PipelineConfig(arch)
	ms := sys.get(MemConfig(arch))
	defer sys.put(ms)
	if opts.CPUPrefetch {
		ms.PF = mem.NewPrefetcher(2)
	}
	cpu := pipeline.NewCore(cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	sg := alloc.NewStackGroup(0, 1, false)
	la := opts.lookahead()
	sp := newRunSampler(opts.sampleConfig(), len(reqs), len(reqs))
	type cpuSlot struct {
		tr tracer
		ub uopBuilder
	}
	units := sp.unitCount(len(reqs))
	slots := make([]cpuSlot, prepSlots(la, units))
	for i := range slots {
		slots[i].tr = tracer{svc: svc, tc: opts.Traces}
	}
	prepped := make([][]pipeline.Uop, len(slots))
	err := pipelined(units, la,
		func(slot, k int) error {
			sl := &slots[slot]
			tr, err := sl.tr.request(&reqs[sp.unit(k)], 0, sg.StackBase(0), alloc.PolicyCPU, 1)
			if err != nil {
				return err
			}
			sl.ub.reset()
			prepped[slot] = sl.ub.scalarUops(tr, 0)
			return nil
		},
		func(slot, k int) {
			if !sp.timed(sp.unit(k)) {
				sp.warm(cpu, ms, prepped[slot])
				return
			}
			prev := ms.Stats()
			ms.ResetTiming()
			st := cpu.Run(ms, prepped[slot])
			st.Mem = st.Mem.Delta(&prev)
			res.Stats.Accumulate(&st)
			res.Latency.Add(float64(st.Cycles))
			sp.observe(&st, 1)
		})
	if err != nil {
		return nil, err
	}
	sp.finish(res)
	res.Energy = model.Compute(&res.Stats, cfg.FreqGHz)
	return res, nil
}

// runSMT models the SMT-8 CPU: 8 worker threads dispatch round-robin
// through a shared frontend with per-thread ROB partitions and a shared
// banked L1. Only the Traces and PrepLookahead options apply (the SMT
// core is not an RPU configuration).
func runSMT(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options, sys *sysList) (*Result, error) {
	cfg := PipelineConfig(arch)
	ms := sys.get(MemConfig(arch))
	defer sys.put(ms)
	cpu := pipeline.NewCore(cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	const ways = 8
	sg := alloc.NewStackGroup(0, ways, false)
	groups := (len(reqs) + ways - 1) / ways

	// One slot per in-flight group: all of a group's streams live in
	// the slot's arena simultaneously until merged, and the merged
	// stream stays valid until the timing core has consumed it. The
	// merge is memoized through the sweep's batch-stream cache when the
	// options carry one; each slot owns one build closure (reading the
	// group through the slot) so the hit path allocates nothing.
	la := opts.lookahead()
	type smtSlot struct {
		tr      tracer
		ub      uopBuilder
		streams [][]pipeline.Uop
		key     []byte
		group   []uservices.Request
		local   trace.BatchStream
		stream  *trace.BatchStream
		build   func() (*trace.BatchStream, error)
	}
	sp := newRunSampler(opts.sampleConfig(), groups, len(reqs))
	units := sp.unitCount(groups)
	slots := make([]smtSlot, prepSlots(la, units))
	for i := range slots {
		sl := &slots[i]
		sl.tr = tracer{svc: svc, tc: opts.Traces}
		sl.build = func() (*trace.BatchStream, error) {
			group := sl.group
			sl.ub.reset()
			sl.streams = sl.streams[:0]
			for t := range group {
				tr, err := sl.tr.request(&group[t], t, sg.StackBase(t), alloc.PolicyCPU, 1)
				if err != nil {
					return nil, err
				}
				sl.streams = append(sl.streams, sl.ub.scalarUops(tr, t))
			}
			sl.local = trace.BatchStream{Requests: len(group)}
			sl.local.Uops = sl.ub.mergeSMT(sl.streams)
			return &sl.local, nil
		}
	}
	err := pipelined(units, la,
		func(slot, k int) error {
			g := sp.unit(k)
			off := g * ways
			end := off + ways
			if end > len(reqs) {
				end = len(reqs)
			}
			sl := &slots[slot]
			sl.group = reqs[off:end]
			var err error
			if opts.BatchStreams == nil {
				sl.stream, err = sl.build()
				return err
			}
			// sg.StackBase(0)-StackSize is the group's base address
			// (thread t's stack starts one StackSize above base+t).
			sl.key = trace.AppendBatchKey(sl.key[:0], trace.KeySMT, sl.group, ways,
				false, nil, alloc.PolicyCPU, false, lineBytes, 1, sg.StackBase(0)-alloc.StackSize)
			sl.stream, err = opts.BatchStreams.Get(sl.key, sl.build)
			return err
		},
		func(slot, k int) {
			bs := slots[slot].stream
			if !sp.timed(sp.unit(k)) {
				sp.warm(cpu, ms, bs.Uops)
				return
			}
			prev := ms.Stats()
			ms.ResetTiming()
			st := cpu.Run(ms, bs.Uops)
			st.Mem = st.Mem.Delta(&prev)
			res.Stats.Accumulate(&st)
			for j := 0; j < bs.Requests; j++ {
				res.Latency.Add(float64(st.Cycles))
			}
			sp.observe(&st, bs.Requests)
		})
	if err != nil {
		return nil, err
	}
	sp.finish(res)
	res.Energy = model.Compute(&res.Stats, cfg.FreqGHz)
	return res, nil
}

// runBatched models the RPU (and GPU): the SIMR-aware server forms
// batches, the driver lays out contiguous stacks and SIMR-aware heap
// arenas, the SIMT engine lock-steps the traces and the OoO-SIMT core
// executes the merged stream. Each batch is prepared once and timed
// on every variant: variants may differ from variants[0] only in the
// timing knobs (Lanes, MajorityVote, AtomicsAtL3), which never change
// the prepared stream, and each gets its own core, memory hierarchy,
// sampler and Result, in variants order.
func runBatched(arch Arch, svc *uservices.Service, reqs []uservices.Request, variants []Options, sys *sysList) ([]*Result, error) {
	if err := checkVariants(variants); err != nil {
		return nil, err
	}
	opts := &variants[0]
	size := opts.BatchSize
	if size <= 0 {
		size = svc.TunedBatch
	}
	banks := MemConfig(arch).L1.Banks
	reconv := svc.BranchReconv()
	batches := batch.Form(reqs, size, opts.Policy)
	model := EnergyModel(arch)

	// One timing model per variant; all of them consume the same
	// prepared streams in batch order.
	type timing struct {
		ms   *mem.System
		core *pipeline.Core
		res  *Result
		sp   *runSampler
	}
	tms := make([]timing, len(variants))
	for v := range variants {
		o := &variants[v]
		cfgP := PipelineConfig(arch)
		cfgM := MemConfig(arch)
		if o.Lanes > 0 {
			cfgP.Lanes = o.Lanes
		}
		cfgP.MajorityVote = o.MajorityVote
		cfgM.AtomicsAtL3 = o.AtomicsAtL3
		tm := &tms[v]
		tm.ms = sys.get(cfgM)
		defer sys.put(tm.ms)
		tm.core = pipeline.NewCore(cfgP)
		tm.res = newResult(arch, svc, len(reqs))
		tm.res.Batches = len(batches)
		tm.sp = newRunSampler(o.sampleConfig(), len(batches), len(reqs))
	}
	// Every variant samples the same units (checkVariants holds Sample
	// equal), so the first sampler plans the prep walk for all.
	plan := tms[0].sp

	// Preparation — trace fetch, lock-step merge, uop build — is pure:
	// it writes only the slot's scratch objects (tracer, merge scratch,
	// uop builder) and a per-batch MCUStats delta, so upcoming batches
	// are prepared on worker goroutines while the timing cores consume
	// earlier ones. The consumer applies each delta to every variant's
	// ms.MCU before Run, which lands the coalescer counts inside the
	// same prev/Delta window the sequential loop (which bumped ms.MCU
	// during the build) gave them. When the options carry a
	// batch-stream cache, prep consults it first and only falls back to
	// the live build on a miss; a hit serves a cache-owned read-only
	// stream with zero allocations (each slot owns one build closure
	// and one reused key buffer).
	totalScalar, totalBatchOps := 0, 0
	la := opts.lookahead()
	type rpuSlot struct {
		tr     tracer
		ub     uopBuilder
		sc     simt.Scratch
		key    []byte
		batch  *batch.Batch
		local  trace.BatchStream
		stream *trace.BatchStream
		build  func() (*trace.BatchStream, error)
	}
	units := plan.unitCount(len(batches))
	slots := make([]rpuSlot, prepSlots(la, units))
	for i := range slots {
		sl := &slots[i]
		sl.tr = tracer{svc: svc, tc: opts.Traces}
		sl.build = func() (*trace.BatchStream, error) {
			b := sl.batch
			sg := alloc.NewStackGroup(0, len(b.Requests), opts.StackInterleave)
			traces, err := sl.tr.batch(b.Requests, sg, opts.AllocPolicy, banks)
			if err != nil {
				return nil, err
			}
			var merged *simt.Result
			if opts.UseIPDOM {
				merged, err = simt.RunIPDOMWith(&sl.sc, traces, size, reconv)
			} else {
				merged, err = simt.RunMinSPPCWith(&sl.sc, traces, size, opts.Spin)
			}
			if err != nil {
				return nil, err
			}
			// merged aliases sl.sc and the built uops alias sl.ub: the
			// local stream stays valid until the consumer releases the
			// slot (the cache deep copies it before sharing).
			sl.ub.reset()
			sl.local = trace.BatchStream{
				ScalarOps: merged.ScalarOps,
				BatchOps:  len(merged.Ops),
				Requests:  len(b.Requests),
			}
			sl.local.Uops = sl.ub.batchUops(merged.Ops, sg, opts.StackInterleave, &sl.local.MCU)
			return &sl.local, nil
		}
	}
	err := pipelined(units, la,
		func(slot, k int) error {
			sl := &slots[slot]
			sl.batch = &batches[plan.unit(k)]
			var err error
			if opts.BatchStreams == nil {
				sl.stream, err = sl.build()
				return err
			}
			// Batch 0's stack group always starts at StackRegion, so
			// the key's stack base is known without laying the group
			// out. Lanes, majority voting, atomics placement and
			// frequency are timing-only and deliberately absent.
			sl.key = trace.AppendBatchKey(sl.key[:0], trace.KeyBatch, sl.batch.Requests, size,
				opts.UseIPDOM, opts.Spin, opts.AllocPolicy, opts.StackInterleave,
				lineBytes, banks, alloc.StackRegion)
			sl.stream, err = opts.BatchStreams.Get(sl.key, sl.build)
			return err
		},
		func(slot, k int) {
			bs := slots[slot].stream
			u := plan.unit(k)
			if plan.timed(u) {
				// SIMT efficiency accumulates over timed units only —
				// the subpopulation Stats extrapolates from — so
				// sampled runs report one consistent Result; unsampled
				// runs time every unit and are unchanged.
				totalScalar += bs.ScalarOps
				totalBatchOps += bs.BatchOps
			}
			for v := range tms {
				tm := &tms[v]
				if !tm.sp.timed(u) {
					tm.sp.warm(tm.core, tm.ms, bs.Uops)
					continue
				}
				prev := tm.ms.Stats()
				tm.ms.MCU.Add(&bs.MCU)
				tm.ms.ResetTiming()
				st := tm.core.Run(tm.ms, bs.Uops)
				st.Mem = st.Mem.Delta(&prev)
				tm.res.Stats.Accumulate(&st)
				for j := 0; j < bs.Requests; j++ {
					tm.res.Latency.Add(float64(st.Cycles))
				}
				tm.sp.observe(&st, bs.Requests)
			}
		})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(tms))
	for v := range tms {
		tm := &tms[v]
		if totalBatchOps > 0 {
			tm.res.SIMTEff = float64(totalScalar) / (float64(totalBatchOps) * float64(size))
		}
		tm.sp.finish(tm.res)
		tm.res.Energy = model.Compute(&tm.res.Stats, tm.res.FreqGHz)
		out[v] = tm.res
	}
	return out, nil
}

// checkVariants rejects a variant list runBatched cannot prepare once:
// an empty one, or one whose variants differ from the first in any
// field that shapes the prepared batch streams or how they are walked.
func checkVariants(variants []Options) error {
	if len(variants) == 0 {
		return fmt.Errorf("core: no timing variants to run")
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
		case o.Sample != base.Sample:
			field = "Sample"
		case o.Traces != base.Traces:
			field = "Traces"
		case o.BatchStreams != base.BatchStreams:
			field = "BatchStreams"
		case o.PrepLookahead != base.PrepLookahead:
			field = "PrepLookahead"
		default:
			continue
		}
		return fmt.Errorf("core: timing variant %d differs from variant 0 in %s; variants may differ only in Lanes, MajorityVote and AtomicsAtL3", i, field)
	}
	return nil
}
