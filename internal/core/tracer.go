package core

import (
	"simr/internal/alloc"
	"simr/internal/isa"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// tracer is one prep slot's source of scalar traces. With a sweep trace
// cache it serves the cache's shared, read-only traces; without one it
// interprets into buffers it owns — one per lane, so a batch's traces
// stay valid together — reusing one context (with its seedrng-backed
// rng) and one heap arena across requests, so a warmed tracer
// allocates nothing and copies no trace. A trace it returns stays
// valid until the same lane is traced again. A tracer must not be
// shared between goroutines; tracer{svc: svc, tc: tc} is ready to use,
// and a nil tc interprets every request.
type tracer struct {
	svc    *uservices.Service
	tc     *trace.Cache
	ctx    *isa.Ctx
	arena  alloc.Arena
	bufs   [][]isa.TraceOp
	traces [][]isa.TraceOp
}

// request returns the scalar trace of req run as thread tid with the
// given stack base and heap policy against an L1 of banks banks,
// interpreted into lane buffer lane.
func (t *tracer) request(req *uservices.Request, lane, tid int, stackBase uint64, policy alloc.Policy, banks int) ([]isa.TraceOp, error) {
	if t.tc != nil {
		return t.tc.Request(req, tid, stackBase, policy, lineBytes, banks)
	}
	if t.ctx == nil {
		t.ctx = uservices.NewTraceCtx()
	}
	for len(t.bufs) <= lane {
		t.bufs = append(t.bufs, nil)
	}
	t.arena.Reset(tid, policy, lineBytes, banks)
	ops, err := t.svc.TraceInto(t.ctx, req, tid, stackBase, &t.arena, t.bufs[lane])
	if err != nil {
		return nil, err
	}
	t.bufs[lane] = ops
	return ops, nil
}

// batch returns the traces of a batch's requests, request t as lane t
// on sg's stack t. The returned slice is reused by the next call.
func (t *tracer) batch(reqs []uservices.Request, sg *alloc.StackGroup, policy alloc.Policy, banks int) ([][]isa.TraceOp, error) {
	t.traces = t.traces[:0]
	for i := range reqs {
		tr, err := t.request(&reqs[i], i, i, sg.StackBase(i), policy, banks)
		if err != nil {
			return nil, err
		}
		t.traces = append(t.traces, tr)
	}
	return t.traces, nil
}
