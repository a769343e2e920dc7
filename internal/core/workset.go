package core

import (
	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/pipeline"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// workSet is the prep and timing scratch of one study cell: the prep
// slot and the pipeline cores its runs take one run after another. A
// cell that runs one service on several architectures — the chip
// study's CPU, SMT-8, RPU and GPU — grows each buffer once, to what the
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
// requests, the builder its uops are carved from and the SIMT engine's
// lock-step scratch. A stream the slot prepares stays valid until the
// slot prepares the next one.
type prepSlot struct {
	tr tracer
	ub uopBuilder
	sc simt.Scratch
}

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

// scalar traces req as the only thread of the one-stack group sg and
// builds its uops: one unit of the CPU run.
func (p *prepSlot) scalar(req *uservices.Request, sg *alloc.StackGroup) ([]pipeline.Uop, error) {
	tr, err := p.tr.request(req, 0, sg.StackBase(0), alloc.PolicyCPU, 1)
	if err != nil {
		return nil, err
	}
	p.ub.reset()
	return p.ub.scalarUops(tr, 0), nil
}

// smt traces group's request t as SMT thread t on sg's stack t and
// builds the threads' round-robin merged stream: one unit of the SMT-8
// run.
func (p *prepSlot) smt(group []uservices.Request, sg *alloc.StackGroup) ([]pipeline.Uop, error) {
	traces, err := p.tr.batch(group, sg, alloc.PolicyCPU, 1)
	if err != nil {
		return nil, err
	}
	p.ub.reset()
	return p.ub.smtUops(traces), nil
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
	bs.Uops = p.ub.batchUops(merged.Ops, sg, o.StackInterleave, &bs.MCU)
	return nil
}
