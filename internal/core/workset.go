package core

import (
	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/isa"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// workSet is the prep and timing scratch of one study cell: the prep
// slot its runs take one run after another, and the pipeline cores,
// one per model a run times at once. A cell that runs one service on
// several architectures — the chip study's CPU and SMT-8 together,
// then RPU and GPU together — grows each buffer once, to what the
// service's largest request or batch needs, instead of once per run.
// Scratch owned by a cell, not by the worker that runs it, keeps a
// study's allocation independent of which cells each worker took. A
// nil *workSet gives every run fresh scratch, which is what direct
// RunService calls get. A workSet must not be shared between
// goroutines.
type workSet struct {
	prep  prepSlot
	cores []*pipeline.Core
}

// prepSlot is a run's prep scratch: the tracer that interprets its
// requests, the builder its uops are carved from, the SIMT engine's
// lock-step scratch and, for the CPU side, the current group of
// requests with the traces taken of them so far. A stream the slot
// prepares stays valid until the slot prepares the next one.
type prepSlot struct {
	tr tracer
	ub uopBuilder
	sc simt.Scratch

	group  []uservices.Request
	traced uint // bit i: traces[i] holds group[i]'s trace
	traces [smtWays][]isa.TraceOp
}

// cpuStack is the stack top of the CPU layout, the one stack of
// alloc.NewStackGroup(0, 1, false).
const cpuStack = alloc.StackRegion + alloc.StackSize

// slot returns the set's prep slot, set to trace svc's requests through
// tc (nil interprets them).
func (ws *workSet) slot(svc *uservices.Service, tc *trace.Cache) *prepSlot {
	p := &prepSlot{}
	if ws != nil {
		p = &ws.prep
	}
	p.tr.svc, p.tr.tc = svc, tc
	return p
}

// core returns the set's i-th pipeline core, in the state
// pipeline.NewCore(cfg) builds. A run that times several models at
// once takes cores 0, 1, ...
func (ws *workSet) core(i int, cfg pipeline.Config) *pipeline.Core {
	if ws == nil {
		return pipeline.NewCore(cfg)
	}
	for len(ws.cores) <= i {
		ws.cores = append(ws.cores, nil)
	}
	if ws.cores[i] == nil {
		ws.cores[i] = pipeline.NewCore(cfg)
	} else {
		ws.cores[i].Reset(cfg)
	}
	return ws.cores[i]
}

// setGroup makes group, at most smtWays requests, the slot's current
// CPU-side group, none of them traced yet.
func (p *prepSlot) setGroup(group []uservices.Request) {
	p.group, p.traced = group, 0
}

// cpuTrace returns the trace of the group's request i in the CPU
// layout — thread 0 on the cpuStack stack, the CPU heap policy, one
// bank — interpreting it into lane buffer i on the group's first ask.
func (p *prepSlot) cpuTrace(i int) ([]isa.TraceOp, error) {
	if p.traced&(1<<i) == 0 {
		tr, err := p.tr.request(&p.group[i], i, 0, cpuStack, alloc.PolicyCPU, 1)
		if err != nil {
			return nil, err
		}
		p.traces[i], p.traced = tr, p.traced|1<<i
	}
	return p.traces[i], nil
}

// scalar builds the CPU's uops of the group's request i: one unit of
// the CPU run.
func (p *prepSlot) scalar(i int) (pipeline.Stream, error) {
	tr, err := p.cpuTrace(i)
	if err != nil {
		return pipeline.Stream{}, err
	}
	p.ub.reset()
	return p.ub.scalarUops(tr, 0), nil
}

// smt builds the group's round-robin merged SMT-8 stream, thread t
// running request t on stack t of an 8-way group and heap arena t:
// one unit of the SMT-8 run. It builds the stream from the group's
// CPU-layout traces. Thread t's stack and heap arena sit t stacks
// above thread 0's (alloc.ArenaSize == alloc.StackSize), and each of
// its traces equals the CPU layout's with every heap and stack address
// moved up by that much (TestSMTRelocation checks every bundled
// service), so smtUops relocates the addresses as it merges.
func (p *prepSlot) smt() (pipeline.Stream, error) {
	for i := range p.group {
		if _, err := p.cpuTrace(i); err != nil {
			return pipeline.Stream{}, err
		}
	}
	p.ub.reset()
	return p.ub.smtUops(p.traces[:len(p.group)]), nil
}

// batch traces b's requests on a stack group laid out for them, runs
// them in lock step at width size and builds the merged stream into bs:
// one unit of an RPU/GPU run under o, on an L1 of banks banks. reconv
// is the service's reconvergence table, read under o.UseIPDOM.
func (p *prepSlot) batch(b *batch.Batch, o *Options, size, banks int, reconv map[uint64]uint64, bs *trace.BatchStream) error {
	sg := alloc.NewStackGroup(0, len(b.Requests), o.StackInterleave)
	traces, err := p.tr.batch(b.Requests, sg, o.AllocPolicy, banks)
	if err != nil {
		return err
	}
	var merged *simt.Result
	if o.UseIPDOM {
		merged, err = simt.RunIPDOMWith(&p.sc, traces, size, reconv)
	} else {
		merged, err = simt.RunMinSPPCWith(&p.sc, traces, size, o.Spin)
	}
	if err != nil {
		return err
	}
	// merged aliases p.sc and the built uops alias p.ub: the stream
	// stays valid until the slot prepares its next batch (the batch
	// cache deep copies it before sharing).
	p.ub.reset()
	*bs = trace.BatchStream{
		ScalarOps: merged.ScalarOps,
		BatchOps:  len(merged.Ops),
		Requests:  len(b.Requests),
	}
	bs.Stream = p.ub.batchUops(merged.Ops, sg, o.StackInterleave, &bs.MCU)
	return nil
}
