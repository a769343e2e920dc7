package core

import (
	"reflect"
	"testing"

	"simr/internal/alloc"
	"simr/internal/batch"
	"simr/internal/mem"
	"simr/internal/simt"
	"simr/internal/trace"
	"simr/internal/uservices"
)

// TestTracerMatchesTraceBatch: a slot tracer, uncached and through a
// trace cache, returns exactly the fresh interpretation of every lane,
// keeps a batch's lanes valid together, and stays exact when its
// buffers, context and arena are reused for the next batch.
func TestTracerMatchesTraceBatch(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 24, 11)
	for _, tc := range []*trace.Cache{nil, trace.NewCache(svc, nil)} {
		tr := tracer{svc: svc, tc: tc}
		for _, part := range [][]uservices.Request{reqs[:8], reqs[8:12], reqs[12:]} {
			sg := alloc.NewStackGroup(0, len(part), true)
			got, err := tr.batch(part, sg, alloc.PolicySIMR, 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svc.TraceBatch(part, sg, alloc.PolicySIMR, lineBytes, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cached=%v: tracer batch differs from TraceBatch", tc != nil)
			}
		}
	}
}

// TestSlotPrepAllocs: once warmed, a slot's uncached prep — one scalar
// request traced and converted to uops, and one RPU batch traced,
// lock-stepped and built — allocates nothing.
func TestSlotPrepAllocs(t *testing.T) {
	svc := uservices.NewSuite().Get("memc")
	reqs := genRequests(svc, 64, 3)
	b := batch.Form(reqs, svc.TunedBatch, batch.PerAPIArgSize)[0]
	banks := MemConfig(ArchRPU).L1.Banks
	spin := simt.DefaultSpin

	tr := tracer{svc: svc}
	var ub uopBuilder
	cpuSG := alloc.NewStackGroup(0, 1, false)
	scalar := func() {
		ops, err := tr.request(&reqs[0], 0, 0, cpuSG.StackBase(0), alloc.PolicyCPU, 1)
		if err != nil {
			t.Fatal(err)
		}
		ub.reset()
		ub.scalarUops(ops, 0)
	}

	var sc simt.Scratch
	var mcu mem.MCUStats
	sg := alloc.NewStackGroup(0, len(b.Requests), true)
	rpu := func() {
		traces, err := tr.batch(b.Requests, sg, alloc.PolicySIMR, banks)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := simt.RunMinSPPCWith(&sc, traces, svc.TunedBatch, &spin)
		if err != nil {
			t.Fatal(err)
		}
		ub.reset()
		ub.batchUops(merged.Ops, sg, true, &mcu)
	}

	for _, c := range []struct {
		name string
		fn   func()
	}{{"scalar request", scalar}, {"rpu batch", rpu}} {
		c.fn()
		if n := testing.AllocsPerRun(20, c.fn); n != 0 {
			t.Errorf("%s: warmed uncached prep allocates %v allocs/op, want 0", c.name, n)
		}
	}
}
