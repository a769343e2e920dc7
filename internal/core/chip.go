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
// the SIMR-aware server and run them in lock-step. Each call builds
// its own prep scratch, core and memory hierarchy.
func RunService(arch Arch, svc *uservices.Service, reqs []uservices.Request, opts Options) (*Result, error) {
	switch arch {
	case ArchCPU:
		return runScalar(svc, reqs, opts, nil, nil)
	case ArchSMT8:
		return runSMT(svc, reqs, opts, nil, nil)
	case ArchRPU, ArchGPU:
		res, err := runBatched(svc, reqs, []Arch{arch}, []Options{opts}, nil, nil)
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
func runScalar(svc *uservices.Service, reqs []uservices.Request, opts Options, ws *workSet, sys *sysList) (*Result, error) {
	const arch = ArchCPU
	cfg := PipelineConfig(arch)
	ms := sys.get(MemConfig(arch))
	defer sys.put(ms)
	if opts.CPUPrefetch {
		ms.PF = mem.NewPrefetcher(2)
	}
	cpu := ws.core(0, cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	sg := alloc.NewStackGroup(0, 1, false)
	la := opts.lookahead()
	sp := newRunSampler(opts.sampleConfig(), len(reqs), len(reqs))
	units := sp.unitCount(len(reqs))
	slots := ws.slots(prepSlots(la, units), svc, opts.Traces)
	prepped := make([][]pipeline.Uop, len(slots))
	err := pipelined(units, la,
		func(slot, k int) error {
			var err error
			prepped[slot], err = slots[slot].scalar(&reqs[sp.unit(k)], sg)
			return err
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
// banked L1. Of the options only Traces, BatchStreams, PrepLookahead
// and Sample apply (the SMT core is not an RPU configuration).
func runSMT(svc *uservices.Service, reqs []uservices.Request, opts Options, ws *workSet, sys *sysList) (*Result, error) {
	const arch = ArchSMT8
	cfg := PipelineConfig(arch)
	ms := sys.get(MemConfig(arch))
	defer sys.put(ms)
	cpu := ws.core(0, cfg)
	res := newResult(arch, svc, len(reqs))
	model := EnergyModel(arch)

	const ways = 8
	sg := alloc.NewStackGroup(0, ways, false)
	groups := (len(reqs) + ways - 1) / ways

	// One slot per in-flight group: the merged stream stays valid until
	// the timing core has consumed it. The merge is memoized through
	// the batch-stream cache when the options carry one; each slot owns
	// one build closure (reading the group through the slot) so the hit
	// path allocates nothing.
	la := opts.lookahead()
	type smtSlot struct {
		key    []byte
		group  []uservices.Request
		local  trace.BatchStream
		stream *trace.BatchStream
		build  func() (*trace.BatchStream, error)
	}
	sp := newRunSampler(opts.sampleConfig(), groups, len(reqs))
	units := sp.unitCount(groups)
	preps := ws.slots(prepSlots(la, units), svc, opts.Traces)
	slots := make([]smtSlot, len(preps))
	for i := range slots {
		sl, p := &slots[i], preps[i]
		sl.build = func() (*trace.BatchStream, error) {
			uops, err := p.smt(sl.group, sg)
			if err != nil {
				return nil, err
			}
			sl.local = trace.BatchStream{Uops: uops, Requests: len(sl.group)}
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

// memConfig is MemConfig as runBatched sees it; the variant tests swap
// it to give an architecture another L1 geometry.
var memConfig = MemConfig

// runBatched models the RPU (and GPU): the SIMR-aware server forms
// batches, the driver lays out contiguous stacks and SIMR-aware heap
// arenas, the SIMT engine lock-steps the traces and the OoO-SIMT core
// executes the merged stream. Each batch is prepared once and timed on
// every variant, variant v on architecture arches[v]. checkVariants
// holds the variants to what one preparation serves: RPU and GPU
// architectures with one L1 line size and bank count, and options that
// differ from variants[0] only in the timing knobs (Lanes,
// MajorityVote, AtomicsAtL3). Each variant gets its own core, memory
// hierarchy, sampler and Result, in variants order.
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

	// One timing model per variant; all of them consume the same
	// prepared streams in batch order.
	type timing struct {
		ms    *mem.System
		core  *pipeline.Core
		res   *Result
		sp    *runSampler
		model *energy.Model
	}
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
		tm.sp = newRunSampler(o.sampleConfig(), len(batches), len(reqs))
		tm.model = EnergyModel(arch)
	}
	// Every variant samples the same units (checkVariants holds Sample
	// equal), so the first sampler plans the prep walk for all.
	plan := tms[0].sp

	// Preparation — trace fetch, lock-step merge, uop build — is pure:
	// it writes only the slot's scratch and a per-batch MCUStats delta,
	// so upcoming batches are prepared on worker goroutines while the
	// timing cores consume earlier ones. The consumer applies each
	// delta to every variant's ms.MCU before Run, which lands the
	// coalescer counts inside the same prev/Delta window the sequential
	// loop (which bumped ms.MCU during the build) gave them. When the
	// options carry a batch-stream cache, prep consults it first and
	// only falls back to the live build on a miss; a hit serves a
	// cache-owned read-only stream with zero allocations (each slot
	// owns one build closure and one reused key buffer).
	totalScalar, totalBatchOps := 0, 0
	la := opts.lookahead()
	type rpuSlot struct {
		key    []byte
		batch  *batch.Batch
		local  trace.BatchStream
		stream *trace.BatchStream
		build  func() (*trace.BatchStream, error)
	}
	units := plan.unitCount(len(batches))
	preps := ws.slots(prepSlots(la, units), svc, opts.Traces)
	slots := make([]rpuSlot, len(preps))
	for i := range slots {
		sl, p := &slots[i], preps[i]
		sl.build = func() (*trace.BatchStream, error) {
			if err := p.batch(sl.batch, opts, size, banks, reconv, &sl.local); err != nil {
				return nil, err
			}
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
		tm.res.Energy = tm.model.Compute(&tm.res.Stats, tm.res.FreqGHz)
		out[v] = tm.res
	}
	return out, nil
}

// checkVariants rejects a variant list runBatched cannot prepare once:
// an empty one, one whose architectures are not batched (RPU or GPU),
// do not pair one-to-one with the options or lay out heap arenas and
// coalesce for another L1 line size or bank count than arches[0], or
// one whose options differ from the first in any field that shapes the
// prepared batch streams (batch size and stack layout included) or how
// they are walked.
func checkVariants(arches []Arch, variants []Options) error {
	if len(variants) == 0 {
		return fmt.Errorf("core: no timing variants to run")
	}
	if len(arches) != len(variants) {
		return fmt.Errorf("core: %d architectures for %d timing variants", len(arches), len(variants))
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
