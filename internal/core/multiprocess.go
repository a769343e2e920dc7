package core

import (
	"math/rand"

	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/mem"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// MultiProcessResult is the §VI-B study outcome: SIMT efficiency of a
// batch whose requests run in one shared address space (multi-threaded
// service) versus separate per-process address spaces.
type MultiProcessResult struct {
	// SharedEff is the multi-threaded baseline.
	SharedEff float64
	// SeparateEff is the multi-process case: identical code mapped at
	// per-process (ASLR) bases, so no two lanes ever share a PC.
	SeparateEff float64
	// AlignedEff is the paper's suggested mitigation: processes whose
	// text segments are deliberately mapped at the same virtual base
	// ("user-orchestrated inter-process sharing"), restoring lock-step.
	AlignedEff float64
}

// buildMPService builds one instance of a small representative service
// program (parse, hash-ish chain, data-dependent branch, copy loop).
func buildMPService() *isa.Program {
	b := isa.NewProgram("mp.svc")
	b.SyscallOp()
	b.Loop(func(c *isa.Ctx) int { return int(c.Arg0(0)) }, func(b *isa.Builder) {
		b.OpsChain(isa.IAlu, 3, 1)
		b.StackStore(24)
	})
	b.If(func(c *isa.Ctx) bool { return c.Arg0(1)%2 == 0 },
		func(b *isa.Builder) { b.Ops(isa.IAlu, 6) },
		func(b *isa.Builder) { b.Ops(isa.FAlu, 3) })
	b.LoopN(8, func(b *isa.Builder) {
		b.StackLoad(32)
		b.StackStore(40)
	})
	b.SyscallOp()
	return b.Build()
}

// MultiProcessStudy reproduces §VI-B: the same microservice run as
// per-request processes instead of threads. Each process's text is
// linked at a different base, so lanes never share a PC and lock-step
// execution degenerates to full serialization; mapping the processes
// at one agreed base restores it.
func MultiProcessStudy(batchSize int, seed int64) (*MultiProcessResult, error) {
	if batchSize <= 0 {
		batchSize = 32
	}
	r := rand.New(rand.NewSource(seed))
	args := make([][]uint64, batchSize)
	for i := range args {
		args[i] = []uint64{uint64(2 + r.Intn(4)), uint64(r.Intn(2))}
	}

	trace := func(p *isa.Program, tid int, arg []uint64) ([]isa.TraceOp, error) {
		ctx := &isa.Ctx{
			Arg:       arg,
			StackBase: 1 << 46,
			Heap:      nopHeap{},
			Rand:      rand.New(rand.NewSource(int64(tid))),
			TID:       tid,
		}
		return isa.Execute(p, ctx, 0)
	}

	res := &MultiProcessResult{}

	// Shared address space: one program, all lanes.
	shared := buildMPService()
	if _, err := isa.Link(1<<22, shared); err != nil {
		return nil, err
	}
	tracesShared := make([][]isa.TraceOp, batchSize)
	for t := 0; t < batchSize; t++ {
		tr, err := trace(shared, t, args[t])
		if err != nil {
			return nil, err
		}
		tracesShared[t] = tr
	}
	rs, err := simt.RunMinSPPC(tracesShared, batchSize, nil)
	if err != nil {
		return nil, err
	}
	res.SharedEff = rs.Efficiency()

	// Separate processes: one program copy per lane at its own (ASLR)
	// base.
	tracesSep := make([][]isa.TraceOp, batchSize)
	base := uint64(1 << 23)
	for t := 0; t < batchSize; t++ {
		p := buildMPService()
		next, err := isa.Link(base+uint64(t)*(1<<16)+uint64(t)*64, p)
		if err != nil {
			return nil, err
		}
		base = next
		tr, err := trace(p, t, args[t])
		if err != nil {
			return nil, err
		}
		tracesSep[t] = tr
	}
	rp, err := simt.RunMinSPPC(tracesSep, batchSize, nil)
	if err != nil {
		return nil, err
	}
	res.SeparateEff = rp.Efficiency()

	// Aligned processes: distinct program instances deliberately linked
	// at one common base (the paper's proposed virtual-memory
	// mitigation) — lanes share PCs again.
	tracesAligned := make([][]isa.TraceOp, batchSize)
	for t := 0; t < batchSize; t++ {
		p := buildMPService()
		if _, err := isa.Link(1<<25, p); err != nil {
			return nil, err
		}
		tr, err := trace(p, t, args[t])
		if err != nil {
			return nil, err
		}
		tracesAligned[t] = tr
	}
	ra, err := simt.RunMinSPPC(tracesAligned, batchSize, nil)
	if err != nil {
		return nil, err
	}
	res.AlignedEff = ra.Efficiency()
	return res, nil
}

type nopHeap struct{}

func (nopHeap) Alloc(n int) uint64 { return 1 << 40 }

// MultiBatchResult is the §III-A coarse-grain batch interleaving
// study: two batches either run back to back on one RPU core or are
// interleaved through the shared OoO window (zero-overhead hardware
// batch switching), overlapping one batch's stalls with the other's
// work.
type MultiBatchResult struct {
	SequentialCycles  uint64
	InterleavedCycles uint64
}

// Speedup returns sequential/interleaved.
func (r *MultiBatchResult) Speedup() float64 {
	if r.InterleavedCycles == 0 {
		return 0
	}
	return float64(r.SequentialCycles) / float64(r.InterleavedCycles)
}

// MultiBatchStudy runs two consecutive batches of the service
// sequentially and then interleaved (round-robin per batch
// instruction, each batch with a private half of the ROB), returning
// both runtimes. The paper leaves multi-batch scheduling as future
// work; this quantifies its headroom at nanosecond-scale stalls.
func MultiBatchStudy(svc *uservices.Service, reqs []uservices.Request, opts Options) (*MultiBatchResult, error) {
	size := opts.BatchSize
	if size <= 0 {
		size = svc.TunedBatch
	}
	if len(reqs) < 2*size {
		size = len(reqs) / 2
	}
	cfgP := PipelineConfig(ArchRPU)
	cfgM := MemConfig(ArchRPU)

	var (
		ub  uopBuilder // never reset: streams a and b stay alive together
		sc  simt.Scratch
		key []byte
	)
	tr := tracer{svc: svc, tc: opts.Traces}
	mkUops := func(rs []uservices.Request, thread uint8) (pipeline.Stream, error) {
		sg := alloc.NewStackGroup(0, len(rs), opts.StackInterleave)
		var local trace.BatchStream
		build := func() (*trace.BatchStream, error) {
			traces, err := tr.batch(rs, sg, opts.AllocPolicy, cfgM.L1.Banks)
			if err != nil {
				return nil, err
			}
			merged, err := simt.RunMinSPPCWith(&sc, traces, size, opts.Spin)
			if err != nil {
				return nil, err
			}
			local.Stream = ub.batchUops(merged.Ops, sg, opts.StackInterleave, &local.MCU)
			local.ScalarOps = merged.ScalarOps
			local.BatchOps = len(merged.Ops)
			local.Requests = len(rs)
			return &local, nil
		}
		var s pipeline.Stream
		if opts.BatchStreams == nil {
			st, err := build()
			if err != nil {
				return pipeline.Stream{}, err
			}
			s = st.Stream
		} else {
			// The study always lock-steps with MinSP-PC, so the key
			// says ipdom=false regardless of opts.UseIPDOM.
			key = trace.AppendBatchKey(key[:0], trace.KeyBatch, rs, size,
				false, opts.Spin, opts.AllocPolicy, opts.StackInterleave,
				lineBytes, cfgM.L1.Banks, alloc.StackRegion)
			st, err := opts.BatchStreams.Get(key, build)
			if err != nil {
				return pipeline.Stream{}, err
			}
			// The stream may be cache-owned (immutable): copy it into
			// the local arena before overwriting Thread below.
			s = ub.copyUops(st.Stream)
		}
		for i := range s.Uops {
			s.Uops[i].Thread = thread
		}
		return s, nil
	}

	a, err := mkUops(reqs[:size], 0)
	if err != nil {
		return nil, err
	}
	b, err := mkUops(reqs[size:2*size], 1)
	if err != nil {
		return nil, err
	}

	// Sequential: two runs on a warm core.
	ms := mem.NewSystem(cfgM)
	core := pipeline.NewCore(cfgP)
	s1 := core.Run(ms, a)
	ms.ResetTiming()
	s2 := core.Run(ms, b)
	seq := s1.Cycles + s2.Cycles

	// Interleaved: merged streams, per-batch ROB partitions.
	cfgI := cfgP
	cfgI.ROBPerThread = cfgP.ROB / 2
	ms2 := mem.NewSystem(cfgM)
	core2 := pipeline.NewCore(cfgI)
	merged := ub.mergeSMT([]pipeline.Stream{a, b})
	si := core2.Run(ms2, merged)

	return &MultiBatchResult{SequentialCycles: seq, InterleavedCycles: si.Cycles}, nil
}
